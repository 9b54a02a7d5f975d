package ft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"repro/internal/cdr"
)

// Delta encoding is the one checkpoint encoding: a delta is the list of
// byte ranges of the new state that differ from the base state, plus the
// new total length. The servant's Wrapper computes it against the capture
// the proxy's store holds whenever the delta is the shorter of the two,
// and the proxy relays it to the store as it arrived (Wrapper.attachState,
// Proxy.storeSnapshot). A call that changes a little of a large state —
// one element of the bulk workload's 64 KiB vector, some coordinates of a
// worker's warm start — then ships only what it changed, on the reply and
// on the put; a state that changed everywhere costs one comparison pass
// and no allocation, and goes out full.
//
// Wire format (CDR):
//
//	u64 baseLen   — len(base) the delta was computed against (sanity)
//	u64 newLen    — length of the materialized result
//	u32 count     — number of patch segments
//	count × { u64 offset, bytes chunk }
//
// Segments are in offset order and do not overlap. Materialization starts
// from base truncated to newLen and overlays each segment; whatever the
// result holds beyond len(base) must be carried by segments, so a delta
// can never make its reader allocate more than it and its base hold.

// deltaMergeGap is the run-merging threshold: differing ranges separated
// by fewer than this many equal bytes are emitted as one segment, trading
// a few redundant payload bytes for fewer segment headers.
const deltaMergeGap = 16

// deltaBlock is the stride in which equal stretches are skipped before the
// comparison narrows to 8-byte words and then to bytes.
const deltaBlock = 256

// Encoded sizes: the header (two u64 and a u32), and a segment's offset and
// chunk length, which follow 8-byte alignment.
const (
	deltaHeaderSize = 8 + 8 + 4
	deltaSegSize    = 8 + 4
)

var (
	errDeltaBaseLen = errors.New("ft: delta computed against a different base length")
	errDeltaRange   = errors.New("ft: delta segment out of range or out of order")
	errDeltaTail    = errors.New("ft: delta grows the state past the bytes it carries")
)

// deltaSeg is one range [start, end) of the new state that a delta carries.
type deltaSeg struct{ start, end int }

// ComputeDelta encodes next as a delta against base. The result is only
// useful with ApplyDelta(base, …); callers should fall back to a full
// snapshot when the delta is not actually smaller.
func ComputeDelta(base, next []byte) []byte {
	var scratch [16]deltaSeg
	segs, size := diffSegments(scratch[:0], base, next, math.MaxInt)
	e := cdr.NewEncoder(size)
	writeDelta(e, len(base), next, segs)
	return e.Bytes()
}

// diffSegments appends to segs the ranges a delta of next against base
// carries, and returns them with the delta's exact encoded size. It stops
// as soon as that size reaches limit — the caller then ships the full
// state — so the returned size is only exact below limit.
func diffSegments(segs []deltaSeg, base, next []byte, limit int) ([]deltaSeg, int) {
	common := min(len(base), len(next))
	size := deltaHeaderSize
	add := func(start, end int) bool {
		size = (size+7)&^7 + deltaSegSize + end - start
		segs = append(segs, deltaSeg{start, end})
		return size < limit
	}
	for i := skipEqual(base, next, 0, common); i < common; i = skipEqual(base, next, i, common) {
		start := i
		for {
			i = skipDiff(base, next, i, common)
			if i == common {
				break
			}
			// An equal stretch: it closes the segment if it is long enough
			// or runs to the end of the common part, else the segment goes on.
			run := skipEqual(base, next, i, min(i+deltaMergeGap, common))
			if run-i >= deltaMergeGap || run == common {
				break
			}
			i = run
		}
		if !add(start, i) {
			return segs, size
		}
	}
	if len(next) > len(base) {
		add(len(base), len(next)) // the appended tail
	}
	return segs, size
}

// skipEqual returns the first index in [i, end) at which base and next
// differ, or end: whole blocks first, then 8-byte words, then bytes.
func skipEqual(base, next []byte, i, end int) int {
	for i+deltaBlock <= end && bytes.Equal(base[i:i+deltaBlock], next[i:i+deltaBlock]) {
		i += deltaBlock
	}
	for ; i+8 <= end; i += 8 {
		if x := binary.LittleEndian.Uint64(base[i:]) ^ binary.LittleEndian.Uint64(next[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < end && base[i] == next[i] {
		i++
	}
	return i
}

// skipDiff returns the first index in [i, end) at which base and next are
// equal, or end, skipping words in which every byte differs.
func skipDiff(base, next []byte, i, end int) int {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for i+8 <= end {
		x := binary.LittleEndian.Uint64(base[i:]) ^ binary.LittleEndian.Uint64(next[i:])
		if (x-lo)&^x&hi != 0 {
			break // the word has an equal byte
		}
		i += 8
	}
	for i < end && base[i] != next[i] {
		i++
	}
	return i
}

// writeDelta encodes the delta of next carrying segs, against a base of
// baseLen bytes, into e, whose length must be a multiple of 8 so that the
// delta decodes from its own first byte.
func writeDelta(e *cdr.Encoder, baseLen int, next []byte, segs []deltaSeg) {
	e.PutUint64(uint64(baseLen))
	e.PutUint64(uint64(len(next)))
	e.PutUint32(uint32(len(segs)))
	for _, s := range segs {
		e.PutUint64(uint64(s.start))
		e.PutBytes(next[s.start:s.end])
	}
}

// ApplyDelta materializes a delta produced by ComputeDelta(base, next),
// returning next in a new slice. It fails when the delta was computed
// against a different base length or is structurally damaged.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	return applyDelta(base, delta, false)
}

// applyDelta is ApplyDelta that, when inPlace is set and the delta keeps
// the length, patches base itself and returns it; the caller must own base
// outright. Every segment is validated before a byte is written.
func applyDelta(base, delta []byte, inPlace bool) ([]byte, error) {
	newLen, err := checkDelta(len(base), delta)
	if err != nil {
		return nil, err
	}
	out := base
	if !inPlace || newLen != len(base) {
		out = make([]byte, newLen)
		copy(out, base)
	}
	d := cdr.NewDecoder(delta)
	d.GetUint64()
	d.GetUint64()
	for k := d.GetUint32(); k > 0; k-- {
		off := d.GetUint64()
		copy(out[off:], d.GetStringBytes())
	}
	return out, nil
}

// checkDelta validates delta against a base of baseLen bytes without
// copying or allocating anything, and returns the length of its result:
// the header must name the base's length, the segments must be in order,
// inside the result and fully present, and a result longer than the base
// must have every byte past the base carried by a segment.
func checkDelta(baseLen int, delta []byte) (int, error) {
	d := cdr.NewDecoder(delta)
	gotBase, newLen, count := d.GetUint64(), d.GetUint64(), d.GetUint32()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if gotBase != uint64(baseLen) {
		return 0, errDeltaBaseLen
	}
	bl := uint64(baseLen)
	var prevEnd, grown uint64
	for k := uint32(0); k < count; k++ {
		off := d.GetUint64()
		n := uint64(len(d.GetStringBytes())) // aliases delta: nothing copied
		if err := d.Err(); err != nil {
			return 0, err
		}
		if off < prevEnd || off > newLen || n > newLen-off {
			return 0, errDeltaRange
		}
		prevEnd = off + n
		if prevEnd > bl {
			grown += prevEnd - max(off, bl)
		}
	}
	if newLen > bl && grown != newLen-bl {
		return 0, errDeltaTail
	}
	return int(newLen), nil
}
