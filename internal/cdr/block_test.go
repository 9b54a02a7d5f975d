package cdr

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The block sequence coders are pinned against the per-element ones they
// replaced, kept here as the reference. The reference encoder shares no
// code with Encoder: it pads one zero byte at a time and appends every
// element byte by byte, low byte first. The reference decoders are the old loops over the
// scalar getters.

type refEncoder struct{ buf []byte }

func (r *refEncoder) align(n int) {
	for len(r.buf)%n != 0 {
		r.buf = append(r.buf, 0)
	}
}

func (r *refEncoder) putUint32(v uint32) {
	r.align(4)
	r.buf = append(r.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (r *refEncoder) putUint64(v uint64) {
	r.align(8)
	r.buf = append(r.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (r *refEncoder) putString(s string) {
	r.putUint32(uint32(len(s)))
	r.buf = append(r.buf, s...)
}

func (r *refEncoder) putFloat64Seq(v []float64) {
	r.putUint32(uint32(len(v)))
	for _, x := range v {
		r.putUint64(math.Float64bits(x))
	}
}

func (r *refEncoder) putInt32Seq(v []int32) {
	r.putUint32(uint32(len(v)))
	for _, x := range v {
		r.putUint32(uint32(x))
	}
}

func refGetFloat64Seq(d *Decoder) []float64 {
	n := d.seqLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.GetFloat64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func refGetInt32Seq(d *Decoder) []int32 {
	n := d.seqLen(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.GetInt32()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// awkwardFloats are the values a conversion that went through float
// arithmetic instead of bits would change.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // denormals
	math.Float64frombits(0x000fffffffffffff), // largest denormal
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN with payload
	math.MaxFloat64, -math.MaxFloat64, 1.5,
}

func randomFloatSeq(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = awkwardFloats[rng.Intn(len(awkwardFloats))]
		} else {
			v[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return v
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlockSequencesGoldenBytes: at random lengths and every starting
// offset — at the head of the stream, after an octet, after a string of
// any length mod 8 — the block encoders produce exactly the reference's
// bytes, and the block decoders read them back bit for bit, leaving the
// stream where the reference leaves it.
func TestBlockSequencesGoldenBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 127, 128, 1000, 8192}
	for round := 0; round < 400; round++ {
		nf := lengths[rng.Intn(len(lengths))]
		ni := lengths[rng.Intn(len(lengths))]
		fs := randomFloatSeq(rng, nf)
		is := make([]int32, ni)
		for i := range is {
			is[i] = int32(rng.Uint32())
		}
		lead := rng.Intn(3) // nothing, an octet, a string
		str := string(bytes.Repeat([]byte{'s'}, rng.Intn(17)))
		intsFirst := rng.Intn(2) == 0

		e := NewEncoder(0)
		var ref refEncoder
		switch lead {
		case 1:
			e.PutOctet(0xEE)
			ref.buf = append(ref.buf, 0xEE)
		case 2:
			e.PutString(str)
			ref.putString(str)
		}
		if intsFirst {
			e.PutInt32Seq(is)
			ref.putInt32Seq(is)
		}
		e.PutFloat64Seq(fs)
		ref.putFloat64Seq(fs)
		if !intsFirst {
			e.PutInt32Seq(is)
			ref.putInt32Seq(is)
		}
		e.PutOctet(0x7F) // what follows the sequences must land where it did
		ref.buf = append(ref.buf, 0x7F)
		if !bytes.Equal(e.Bytes(), ref.buf) {
			t.Fatalf("round %d (lead %d, %d floats, %d ints, ints first %v): bytes differ\n got %x\nwant %x",
				round, lead, nf, ni, intsFirst, e.Bytes(), ref.buf)
		}

		d, rd := NewDecoder(e.Bytes()), NewDecoder(ref.buf)
		for _, dec := range []*Decoder{d, rd} {
			switch lead {
			case 1:
				dec.GetOctet()
			case 2:
				dec.GetString()
			}
		}
		var gotF, wantF []float64
		var gotI, wantI []int32
		if intsFirst {
			gotI, wantI = d.GetInt32Seq(), refGetInt32Seq(rd)
		}
		gotF, wantF = d.GetFloat64Seq(), refGetFloat64Seq(rd)
		if !intsFirst {
			gotI, wantI = d.GetInt32Seq(), refGetInt32Seq(rd)
		}
		if d.Err() != nil || rd.Err() != nil {
			t.Fatalf("round %d: decode: %v, reference: %v", round, d.Err(), rd.Err())
		}
		if !sameFloatBits(gotF, fs) || !sameFloatBits(wantF, fs) || !sameInt32s(gotI, is) || !sameInt32s(wantI, is) {
			t.Fatalf("round %d: decoded sequences differ from what was encoded", round)
		}
		if d.GetOctet() != 0x7F || d.Remaining() != 0 || d.Err() != nil {
			t.Fatalf("round %d: decoder did not stop at the end of the sequences", round)
		}
	}
}

// TestSequenceLoopsMatchCopy: the per-element loops a big-endian host runs
// instead of the copy, called here directly, write the bytes the copy
// writes and read them back bit for bit, at every length up to one past
// bulk's 8192 elements and at every alignment of the block in the stream.
// Both are held to the reference's byte-by-byte little-endian appends.
func TestSequenceLoopsMatchCopy(t *testing.T) {
	const most = 8193
	rng := rand.New(rand.NewSource(40))
	fs := append(append([]float64{}, awkwardFloats...), randomFloatSeq(rng, most-len(awkwardFloats))...)
	is := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	for len(is) < most {
		is = append(is, int32(rng.Uint32()))
	}
	var wantF, wantI refEncoder
	for i := range fs {
		wantF.putUint64(math.Float64bits(fs[i]))
		wantI.putUint32(uint32(is[i]))
	}
	if hostLittleEndian && (!bytes.Equal(memBytes(fs), wantF.buf) || !bytes.Equal(memBytes(is), wantI.buf)) {
		t.Fatal("the copy's bytes are not the reference's")
	}

	// Each length is coded at one offset, and every length modulo 8 meets
	// every offset within 64 lengths: the full product costs two minutes
	// under the race detector. Neither loop may touch a byte on either
	// side of its block.
	const sentinel = 0xA5
	buf := bytes.Repeat([]byte{sentinel}, 7+8*most+1)
	outF, outI := make([]float64, most), make([]int32, most)
	for n := 0; n <= most; n++ {
		lead := (n + n/8) % 8
		buf[lead+8*n] = sentinel
		if lead > 0 {
			buf[lead-1] = sentinel
		}
		b := buf[lead : lead+8*n]
		putFloat64s(b, fs[:n])
		if !bytes.Equal(b, wantF.buf[:8*n]) || buf[lead+8*n] != sentinel || (lead > 0 && buf[lead-1] != sentinel) {
			t.Fatalf("putFloat64s, %d elements at offset %d: bytes differ from the copy's", n, lead)
		}
		getFloat64s(outF[:n], b)
		if !bytes.Equal(memBytes(outF[:n]), memBytes(fs[:n])) {
			t.Fatalf("getFloat64s, %d elements at offset %d: values differ from the copy's", n, lead)
		}

		buf[lead+4*n] = sentinel
		b = buf[lead : lead+4*n]
		putInt32s(b, is[:n])
		if !bytes.Equal(b, wantI.buf[:4*n]) || buf[lead+4*n] != sentinel || (lead > 0 && buf[lead-1] != sentinel) {
			t.Fatalf("putInt32s, %d elements at offset %d: bytes differ from the copy's", n, lead)
		}
		getInt32s(outI[:n], b)
		if !bytes.Equal(memBytes(outI[:n]), memBytes(is[:n])) {
			t.Fatalf("getInt32s, %d elements at offset %d: values differ from the copy's", n, lead)
		}
	}
}

// allocated reports the heap bytes f allocates: the least of three runs,
// since TotalAlloc is process-wide and one reading can take in what
// another goroutine allocated meanwhile.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLyingSequencePrefixAllocatesNothing: a count that promises more than
// the stream holds — whether absurd, merely too long, or one byte short —
// fails with the right error before anything is allocated for it.
func TestLyingSequencePrefixAllocatesNothing(t *testing.T) {
	prefixed := func(count uint32, payload int) []byte {
		e := NewEncoder(8 + payload)
		e.PutUint32(count)
		e.PutRaw(make([]byte, payload))
		return e.Bytes()
	}
	const n = 100_000
	cases := []struct {
		name  string
		data  []byte
		float bool
		want  error
	}{
		{"float count past the limit", prefixed(MaxSequenceLen+1, 64), true, ErrTooLong},
		{"float count 4 Gi", prefixed(0xffffffff, 64), true, ErrTooLong},
		{"float count far beyond the stream", prefixed(1<<20, 64), true, ErrTruncated},
		{"float elements one byte short", prefixed(n, 4+8*n-1), true, ErrTruncated},
		{"float count and nothing else", prefixed(n, 0), true, ErrTruncated},
		{"int count past the limit", prefixed(MaxSequenceLen+1, 64), false, ErrTooLong},
		{"int count far beyond the stream", prefixed(1<<20, 64), false, ErrTruncated},
		{"int elements one byte short", prefixed(n, 4*n-1), false, ErrTruncated},
		{"count cut short", []byte{0, 0, 1}, true, ErrTruncated},
	}
	for _, c := range cases {
		d := NewDecoder(nil)
		var err error
		var got int
		// Even the one-byte-short streams, which the count check alone
		// cannot refuse, cost less than any element array would.
		if b := allocated(func() {
			for i := 0; i < 10; i++ {
				d.Reset(c.data)
				if c.float {
					got += len(d.GetFloat64Seq())
				} else {
					got += len(d.GetInt32Seq())
				}
				err = d.Err()
			}
		}); b > 4096 {
			t.Errorf("%s: %d bytes allocated over 10 decodes", c.name, b)
		}
		if got != 0 || !errors.Is(err, c.want) {
			t.Errorf("%s: %d elements, err %v, want none and %v", c.name, got, err, c.want)
		}
	}
}

// TestBlockEncodeAllocatesNothingWarm: a sequence reserves its bytes in one
// step, and an encoder that already has the capacity allocates nothing.
func TestBlockEncodeAllocatesNothingWarm(t *testing.T) {
	v := make([]float64, 8192)
	e := NewEncoder(0)
	if n := testing.AllocsPerRun(20, func() {
		e.Reset()
		e.PutFloat64Seq(v)
	}); n != 0 {
		t.Errorf("warm encoder: %v allocations per sequence, want 0", n)
	}
}

// TestEncoderPoolRetainsBulkBuffers: a buffer that served a 64 KiB message
// goes back to the pool (it used to be dropped at every Release, one byte
// above the old 64 KiB cap).
func TestEncoderPoolRetainsBulkBuffers(t *testing.T) {
	e := AcquireEncoder()
	e.PutFloat64Seq(make([]float64, 8192))
	e.Release()
	if cap(e.buf) < 8+8*8192 {
		t.Fatalf("a %d byte buffer was dropped at Release (cap %d)", 8+8*8192, cap(e.buf))
	}
}

// FuzzSequences decodes arbitrary bytes as a sequence<double> then a
// sequence<long>, after a fuzzer-chosen number of leading octets so that
// every alignment is met. The block decoders must agree with the
// per-element reference on values, errors and position, never panic, and
// whatever they accept must re-encode — by the block encoder and by the
// reference — to bytes that decode to the same values.
func FuzzSequences(f *testing.F) {
	for _, seed := range []struct {
		lead   uint8
		floats []float64
		ints   []int32
	}{
		{0, nil, nil},
		{0, []float64{1.5, -2.5, math.MaxFloat64}, []int32{-1, 0, 1 << 30}},
		{1, awkwardFloats, []int32{math.MinInt32, math.MaxInt32}},
		{5, make([]float64, 128), make([]int32, 3)},
	} {
		e := NewEncoder(0)
		e.PutRaw(make([]byte, seed.lead))
		e.PutFloat64Seq(seed.floats)
		e.PutInt32Seq(seed.ints)
		f.Add(seed.lead, e.Bytes())
		f.Add(seed.lead, e.Bytes()[:e.Len()-1])
	}
	huge := NewEncoder(8)
	huge.PutUint32(1 << 24) // the hostile prefix of TestHostileSequenceLength
	f.Add(uint8(0), huge.Bytes())
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, lead uint8, data []byte) {
		d, rd := NewDecoder(data), NewDecoder(data)
		for i := 0; i < int(lead%9); i++ {
			d.GetOctet()
			rd.GetOctet()
		}
		fs, wantF := d.GetFloat64Seq(), refGetFloat64Seq(rd)
		if !sameFloatBits(fs, wantF) || (d.Err() == nil) != (rd.Err() == nil) {
			t.Fatalf("floats: block %d elements, err %v; reference %d elements, err %v", len(fs), d.Err(), len(wantF), rd.Err())
		}
		is, wantI := d.GetInt32Seq(), refGetInt32Seq(rd)
		if !sameInt32s(is, wantI) || (d.Err() == nil) != (rd.Err() == nil) {
			t.Fatalf("ints: block %d elements, err %v; reference %d elements, err %v", len(is), d.Err(), len(wantI), rd.Err())
		}
		if d.Err() != nil {
			return
		}
		if d.Remaining() != rd.Remaining() {
			t.Fatalf("block decoder stopped %d bytes before the end, reference %d", d.Remaining(), rd.Remaining())
		}
		e := NewEncoder(0)
		e.PutFloat64Seq(fs)
		e.PutInt32Seq(is)
		var ref refEncoder
		ref.putFloat64Seq(fs)
		ref.putInt32Seq(is)
		if !bytes.Equal(e.Bytes(), ref.buf) {
			t.Fatalf("re-encoded bytes differ\n got %x\nwant %x", e.Bytes(), ref.buf)
		}
		again := NewDecoder(e.Bytes())
		if !sameFloatBits(again.GetFloat64Seq(), fs) || !sameInt32s(again.GetInt32Seq(), is) || again.Err() != nil || again.Remaining() != 0 {
			t.Fatalf("decode → encode → decode is not a fixed point (err %v)", again.Err())
		}
	})
}
