// Package cdr implements a binary marshalling format modelled on the CORBA
// Common Data Representation (CDR).
//
// Values are encoded little-endian with CDR's natural alignment rules:
// every primitive of size n is aligned to an n-byte boundary relative to
// the start of the stream. Strings are encoded as a uint32 length followed
// by the raw bytes (no trailing NUL; documented deviation from CORBA CDR
// 1.x, which includes one). Sequences are a uint32 element count followed
// by the elements.
//
// The package provides a stateful Encoder/Decoder pair plus an
// encapsulation helper mirroring CDR encapsulations (self-contained octet
// sequences used for service contexts and object references).
//
// Little-endian is the wire's one byte order; every encapsulation's flag
// octet says so, and a stream in the other order is refused, not
// converted. It is the order of the hosts this runtime is deployed on, so
// there the elements of a sequence of fixed-size primitives
// (PutFloat64Seq/GetFloat64Seq and the Int32 pair) cross as one copy
// between the slice and the stream: the count is validated, the stream
// aligned and the bytes reserved or taken once. A big-endian host converts
// the same block in one loop instead. Either way the wire form is that of
// the element-by-element coding, byte for byte. Encoders and Decoders are
// pooled (AcquireEncoder/AcquireDecoder); RetainLimit is the one rule for
// which buffers the data path keeps.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Marshaler is implemented by types that can append themselves to an
// Encoder. It is the CDR analogue of an IDL struct's generated insertion
// operator.
type Marshaler interface {
	MarshalCDR(e *Encoder)
}

// Unmarshaler is implemented by types that can read themselves from a
// Decoder.
type Unmarshaler interface {
	UnmarshalCDR(d *Decoder) error
}

// ErrTruncated is reported when a Decoder runs out of bytes.
var ErrTruncated = errors.New("cdr: truncated stream")

// ErrTooLong is reported when a declared length exceeds the sanity limit.
var ErrTooLong = errors.New("cdr: declared length exceeds limit")

// MaxSequenceLen bounds any single decoded string/sequence length. It
// protects servers from hostile or corrupt length prefixes.
const MaxSequenceLen = 1 << 26 // 64 Mi elements

// Encoder accumulates a CDR byte stream.
//
// The zero value is ready to use. Encoders may be reused via Reset.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Reset discards the encoded bytes but keeps the underlying buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded stream. The slice aliases the Encoder's
// internal buffer and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// zeroPad is the source of alignment padding: no primitive is wider than
// eight bytes, so no gap is longer than seven.
var zeroPad [8]byte

// Align pads the stream with zero bytes to an n-byte boundary, n being the
// size of a primitive (1, 2, 4 or 8). Every aligned Put calls it; callers
// that lay out a stream by hand — the message layer, which starts every
// body on an 8-byte boundary — use it too.
func (e *Encoder) Align(n int) {
	if pad := -len(e.buf) & (n - 1); pad > 0 {
		e.buf = append(e.buf, zeroPad[:pad]...)
	}
}

// grow extends the stream by n bytes in one step and returns them for the
// caller to fill; they hold stale data until it does.
func (e *Encoder) grow(n int) []byte {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:off+n]
	return e.buf[off:]
}

// PutOctet appends a single byte.
func (e *Encoder) PutOctet(v byte) { e.buf = append(e.buf, v) }

// PutBool appends a boolean as one octet (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutOctet(1)
	} else {
		e.PutOctet(0)
	}
}

// PutUint16 appends a 2-byte-aligned little-endian uint16.
func (e *Encoder) PutUint16(v uint16) {
	e.Align(2)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// PutUint32 appends a 4-byte-aligned little-endian uint32.
func (e *Encoder) PutUint32(v uint32) {
	e.Align(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutUint64 appends an 8-byte-aligned little-endian uint64.
func (e *Encoder) PutUint64(v uint64) {
	e.Align(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutInt16 appends a 2-byte-aligned little-endian int16.
func (e *Encoder) PutInt16(v int16) { e.PutUint16(uint16(v)) }

// PutInt32 appends a 4-byte-aligned little-endian int32.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutInt64 appends an 8-byte-aligned little-endian int64.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutFloat32 appends a 4-byte-aligned IEEE-754 float32.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 appends an 8-byte-aligned IEEE-754 float64.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutString appends a uint32 length followed by the string bytes.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a sequence<octet>: uint32 count plus raw bytes.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutRaw appends bytes with no length prefix and no alignment.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// PutFloat64Seq appends a sequence<double>. The elements are one block:
// aligned and reserved once, then copied in — converted, on a big-endian
// host (see hostLittleEndian).
func (e *Encoder) PutFloat64Seq(v []float64) {
	e.PutUint32(uint32(len(v)))
	if len(v) == 0 {
		return // no element, so no padding to the element boundary either
	}
	e.Align(8)
	b := e.grow(8 * len(v))
	if hostLittleEndian {
		copy(b, memBytes(v))
	} else {
		putFloat64s(b, v)
	}
}

// PutInt32Seq appends a sequence<long>, as one block like PutFloat64Seq
// (the count has already left the stream 4-aligned).
func (e *Encoder) PutInt32Seq(v []int32) {
	e.PutUint32(uint32(len(v)))
	b := e.grow(4 * len(v))
	if hostLittleEndian {
		copy(b, memBytes(v))
	} else {
		putInt32s(b, v)
	}
}

// PutStringSeq appends a sequence<string>.
func (e *Encoder) PutStringSeq(v []string) {
	e.PutUint32(uint32(len(v)))
	for _, s := range v {
		e.PutString(s)
	}
}

// PutValue appends a Marshaler.
func (e *Encoder) PutValue(m Marshaler) { m.MarshalCDR(e) }

// Decoder consumes a CDR byte stream produced by Encoder.
//
// Decoding errors are sticky: after the first failure all subsequent Get
// calls return zero values and Err reports the original error.
type Decoder struct {
	data []byte
	pos  int
	err  error
}

// NewDecoder returns a Decoder over data. The Decoder does not copy data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

// fail records the first decoding error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// align advances the read position to an n-byte boundary.
func (d *Decoder) align(n int) {
	pad := (n - d.pos%n) % n
	if d.pos+pad > len(d.data) {
		d.fail(ErrTruncated)
		d.pos = len(d.data)
		return
	}
	d.pos += pad
}

// take returns the next n bytes or nil after recording ErrTruncated.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.data) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

// GetOctet reads one byte.
func (d *Decoder) GetOctet() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// GetBool reads one octet as a boolean; any nonzero value is true.
func (d *Decoder) GetBool() bool { return d.GetOctet() != 0 }

// GetUint16 reads an aligned little-endian uint16.
func (d *Decoder) GetUint16() uint16 {
	d.align(2)
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// GetUint32 reads an aligned little-endian uint32.
func (d *Decoder) GetUint32() uint32 {
	d.align(4)
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// GetUint64 reads an aligned little-endian uint64.
func (d *Decoder) GetUint64() uint64 {
	d.align(8)
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// GetInt16 reads an aligned little-endian int16.
func (d *Decoder) GetInt16() int16 { return int16(d.GetUint16()) }

// GetInt32 reads an aligned little-endian int32.
func (d *Decoder) GetInt32() int32 { return int32(d.GetUint32()) }

// GetInt64 reads an aligned little-endian int64.
func (d *Decoder) GetInt64() int64 { return int64(d.GetUint64()) }

// GetFloat32 reads an aligned IEEE-754 float32.
func (d *Decoder) GetFloat32() float32 { return math.Float32frombits(d.GetUint32()) }

// GetFloat64 reads an aligned IEEE-754 float64.
func (d *Decoder) GetFloat64() float64 { return math.Float64frombits(d.GetUint64()) }

// seqLen reads and validates a sequence length prefix, bounding it both by
// MaxSequenceLen and by the bytes actually remaining (each element needs at
// least minElemSize bytes), so hostile prefixes cannot force allocation.
func (d *Decoder) seqLen(minElemSize int) int {
	n := d.GetUint32()
	if d.err != nil {
		return 0
	}
	if n > MaxSequenceLen {
		d.fail(fmt.Errorf("%w: %d", ErrTooLong, n))
		return 0
	}
	if minElemSize > 0 && int(n) > d.Remaining()/minElemSize+1 {
		d.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// GetString reads a length-prefixed string.
func (d *Decoder) GetString() string {
	n := d.seqLen(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// GetStringBytes reads a length-prefixed string and returns the raw bytes
// without copying: the slice aliases the decoder's buffer and is only
// valid while that buffer is. Callers that retain the value must copy or
// intern it; the giop frame reader does the latter to decode repeated
// object keys and operation names without allocating.
func (d *Decoder) GetStringBytes() []byte {
	return d.take(d.seqLen(1))
}

// GetBytes reads a sequence<octet>. The returned slice is a copy.
func (d *Decoder) GetBytes() []byte {
	n := d.seqLen(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// GetFloat64Seq reads a sequence<double>. The elements are taken as one
// block, and the result is allocated only once they are known to be there:
// a prefix that promises more than the stream holds costs nothing.
func (d *Decoder) GetFloat64Seq() []float64 {
	n := d.seqLen(8)
	if n == 0 {
		return nil
	}
	d.align(8)
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	if hostLittleEndian {
		copy(memBytes(out), b)
	} else {
		getFloat64s(out, b)
	}
	return out
}

// GetInt32Seq reads a sequence<long>, as one block like GetFloat64Seq.
func (d *Decoder) GetInt32Seq() []int32 {
	n := d.seqLen(4)
	if n == 0 {
		return nil
	}
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	if hostLittleEndian {
		copy(memBytes(out), b)
	} else {
		getInt32s(out, b)
	}
	return out
}

// GetStringSeq reads a sequence<string>.
func (d *Decoder) GetStringSeq() []string {
	n := d.seqLen(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.GetString()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// GetValue decodes into an Unmarshaler and records any error it returns.
func (d *Decoder) GetValue(u Unmarshaler) {
	if d.err != nil {
		return
	}
	if err := u.UnmarshalCDR(d); err != nil {
		d.fail(err)
	}
}
