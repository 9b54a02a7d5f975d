package cdr

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOctetRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.PutOctet(0)
	e.PutOctet(0x7f)
	e.PutOctet(0xff)
	d := NewDecoder(e.Bytes())
	for _, want := range []byte{0, 0x7f, 0xff} {
		if got := d.GetOctet(); got != want {
			t.Errorf("GetOctet = %#x, want %#x", got, want)
		}
	}
	if d.Err() != nil {
		t.Fatalf("unexpected error: %v", d.Err())
	}
}

func TestBoolRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	if !d.GetBool() || d.GetBool() {
		t.Fatal("bool round trip failed")
	}
}

func TestIntegerRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint16(0xbeef)
	e.PutInt16(-2)
	e.PutUint32(0xdeadbeef)
	e.PutInt32(-123456789)
	e.PutUint64(0x0102030405060708)
	e.PutInt64(math.MinInt64)
	d := NewDecoder(e.Bytes())
	if got := d.GetUint16(); got != 0xbeef {
		t.Errorf("uint16 = %#x", got)
	}
	if got := d.GetInt16(); got != -2 {
		t.Errorf("int16 = %d", got)
	}
	if got := d.GetUint32(); got != 0xdeadbeef {
		t.Errorf("uint32 = %#x", got)
	}
	if got := d.GetInt32(); got != -123456789 {
		t.Errorf("int32 = %d", got)
	}
	if got := d.GetUint64(); got != 0x0102030405060708 {
		t.Errorf("uint64 = %#x", got)
	}
	if got := d.GetInt64(); got != math.MinInt64 {
		t.Errorf("int64 = %d", got)
	}
	if d.Err() != nil {
		t.Fatalf("err = %v", d.Err())
	}
}

func TestFloatRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.PutFloat32(3.5)
	e.PutFloat64(math.Pi)
	e.PutFloat64(math.Inf(-1))
	d := NewDecoder(e.Bytes())
	if got := d.GetFloat32(); got != 3.5 {
		t.Errorf("float32 = %v", got)
	}
	if got := d.GetFloat64(); got != math.Pi {
		t.Errorf("float64 = %v", got)
	}
	if got := d.GetFloat64(); !math.IsInf(got, -1) {
		t.Errorf("float64 inf = %v", got)
	}
}

func TestFloat64NaNRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.PutFloat64(math.NaN())
	d := NewDecoder(e.Bytes())
	if got := d.GetFloat64(); !math.IsNaN(got) {
		t.Errorf("NaN round trip = %v", got)
	}
}

func TestAlignmentRules(t *testing.T) {
	// An octet followed by a uint32 must pad to offset 4.
	e := NewEncoder(0)
	e.PutOctet(0xaa)
	e.PutUint32(1)
	if e.Len() != 8 {
		t.Fatalf("len = %d, want 8 (1 octet + 3 pad + 4)", e.Len())
	}
	if !bytes.Equal(e.Bytes()[1:4], []byte{0, 0, 0}) {
		t.Fatalf("padding bytes = %v", e.Bytes()[1:4])
	}
	d := NewDecoder(e.Bytes())
	if d.GetOctet() != 0xaa || d.GetUint32() != 1 {
		t.Fatal("aligned round trip failed")
	}
}

func TestAlignmentUint64AfterOctet(t *testing.T) {
	e := NewEncoder(0)
	e.PutOctet(1)
	e.PutUint64(7)
	if e.Len() != 16 {
		t.Fatalf("len = %d, want 16", e.Len())
	}
	d := NewDecoder(e.Bytes())
	d.GetOctet()
	if d.GetUint64() != 7 {
		t.Fatal("uint64 after octet failed")
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"", "a", "hello world", "Hölderlinstraße", string([]byte{0, 1, 2})}
	e := NewEncoder(0)
	for _, s := range cases {
		e.PutString(s)
	}
	d := NewDecoder(e.Bytes())
	for _, want := range cases {
		if got := d.GetString(); got != want {
			t.Errorf("GetString = %q, want %q", got, want)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes([]byte{1, 2, 3})
	e.PutBytes(nil)
	d := NewDecoder(e.Bytes())
	if got := d.GetBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if got := d.GetBytes(); len(got) != 0 {
		t.Errorf("empty bytes = %v", got)
	}
}

func TestBytesDecodeReturnsCopy(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes([]byte{9, 9})
	raw := e.Bytes()
	d := NewDecoder(raw)
	got := d.GetBytes()
	got[0] = 1
	d2 := NewDecoder(raw)
	if b := d2.GetBytes(); b[0] != 9 {
		t.Fatal("GetBytes did not return an independent copy")
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	f := []float64{1.5, -2.5, math.MaxFloat64}
	i := []int32{-1, 0, 1 << 30}
	s := []string{"x", "", "yz"}
	e.PutFloat64Seq(f)
	e.PutInt32Seq(i)
	e.PutStringSeq(s)
	d := NewDecoder(e.Bytes())
	gf := d.GetFloat64Seq()
	gi := d.GetInt32Seq()
	gs := d.GetStringSeq()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for k := range f {
		if gf[k] != f[k] {
			t.Errorf("float seq[%d] = %v", k, gf[k])
		}
	}
	for k := range i {
		if gi[k] != i[k] {
			t.Errorf("int seq[%d] = %v", k, gi[k])
		}
	}
	for k := range s {
		if gs[k] != s[k] {
			t.Errorf("string seq[%d] = %q", k, gs[k])
		}
	}
}

func TestEmptySequences(t *testing.T) {
	e := NewEncoder(0)
	e.PutFloat64Seq(nil)
	e.PutInt32Seq(nil)
	e.PutStringSeq(nil)
	d := NewDecoder(e.Bytes())
	if v := d.GetFloat64Seq(); v != nil {
		t.Errorf("empty float seq = %v", v)
	}
	if v := d.GetInt32Seq(); v != nil {
		t.Errorf("empty int seq = %v", v)
	}
	if v := d.GetStringSeq(); v != nil {
		t.Errorf("empty string seq = %v", v)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestTruncatedStream(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint64(42)
	data := e.Bytes()[:5]
	d := NewDecoder(data)
	if got := d.GetUint64(); got != 0 {
		t.Errorf("truncated uint64 = %d, want 0", got)
	}
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
}

func TestErrorIsSticky(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0})
	d.GetUint32() // fails
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	d.GetUint32()
	d.GetString()
	if d.Err() != first {
		t.Fatalf("error replaced: %v", d.Err())
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A 4 GiB string length with 0 bytes of payload must not allocate.
	e := NewEncoder(0)
	e.PutUint32(0xffffffff)
	d := NewDecoder(e.Bytes())
	if s := d.GetString(); s != "" {
		t.Errorf("hostile string = %q", s)
	}
	if d.Err() == nil {
		t.Fatal("expected length error")
	}
}

func TestHostileSequenceLength(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint32(1 << 24) // claims 16M doubles; stream has none
	d := NewDecoder(e.Bytes())
	if v := d.GetFloat64Seq(); v != nil {
		t.Errorf("hostile seq = %d elems", len(v))
	}
	if d.Err() == nil {
		t.Fatal("expected error")
	}
}

type point struct {
	X, Y float64
	Name string
}

func (p *point) MarshalCDR(e *Encoder) {
	e.PutFloat64(p.X)
	e.PutFloat64(p.Y)
	e.PutString(p.Name)
}

func (p *point) UnmarshalCDR(d *Decoder) error {
	p.X = d.GetFloat64()
	p.Y = d.GetFloat64()
	p.Name = d.GetString()
	return d.Err()
}

func TestValueRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	in := &point{X: 1, Y: -2, Name: "origin-ish"}
	e.PutValue(in)
	var out point
	d := NewDecoder(e.Bytes())
	d.GetValue(&out)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if out != *in {
		t.Fatalf("value round trip: got %+v want %+v", out, *in)
	}
}

func TestEncapsulationRoundTrip(t *testing.T) {
	blob := Encapsulate(func(e *Encoder) {
		e.PutString("ctx")
		e.PutUint32(7)
	})
	d, err := OpenEncapsulation(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.GetString(); s != "ctx" {
		t.Errorf("string = %q", s)
	}
	if v := d.GetUint32(); v != 7 {
		t.Errorf("uint32 = %d", v)
	}
}

func TestEncapsulationRejectsBigEndian(t *testing.T) {
	if _, err := OpenEncapsulation([]byte{0, 0, 0, 0}); err != ErrByteOrder {
		t.Fatalf("err = %v, want ErrByteOrder", err)
	}
	if !strings.Contains(ErrByteOrder.Error(), "big-endian") {
		t.Fatalf("ErrByteOrder reads %q, which does not name the order it refuses", ErrByteOrder)
	}
}

func TestEncapsulationEmpty(t *testing.T) {
	if _, err := OpenEncapsulation(nil); err == nil {
		t.Fatal("expected error for empty encapsulation")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	e.PutUint32(2)
	d := NewDecoder(e.Bytes())
	if d.GetUint32() != 2 {
		t.Fatal("post-reset encode failed")
	}
}

// Property: any sequence of primitive writes decodes to the same values.
func TestQuickPrimitiveRoundTrip(t *testing.T) {
	f := func(a uint32, b int64, c float64, s string, o byte, fl bool) bool {
		e := NewEncoder(0)
		e.PutOctet(o)
		e.PutUint32(a)
		e.PutBool(fl)
		e.PutInt64(b)
		e.PutFloat64(c)
		e.PutString(s)
		d := NewDecoder(e.Bytes())
		okO := d.GetOctet() == o
		okA := d.GetUint32() == a
		okF := d.GetBool() == fl
		okB := d.GetInt64() == b
		gc := d.GetFloat64()
		okC := gc == c || (math.IsNaN(gc) && math.IsNaN(c))
		okS := d.GetString() == s
		return okO && okA && okF && okB && okC && okS && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 sequences round trip exactly.
func TestQuickFloat64SeqRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		e := NewEncoder(0)
		e.PutFloat64Seq(v)
		d := NewDecoder(e.Bytes())
		got := d.GetFloat64Seq()
		if d.Err() != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] && !(math.IsNaN(got[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a decoder never panics and never reads past the buffer on
// arbitrary input.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		d := NewDecoder(data)
		d.GetOctet()
		d.GetUint32()
		d.GetString()
		d.GetFloat64Seq()
		d.GetInt64()
		return d.Remaining() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenericSeqRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	in16 := []int16{-3, 0, 9}
	PutSeq(e, in16, (*Encoder).PutInt16)
	inU := []uint64{1, 1 << 60}
	PutSeq(e, inU, (*Encoder).PutUint64)
	d := NewDecoder(e.Bytes())
	out16 := GetSeq(d, 2, (*Decoder).GetInt16)
	outU := GetSeq(d, 8, (*Decoder).GetUint64)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(out16) != 3 || out16[0] != -3 || out16[2] != 9 {
		t.Fatalf("int16 seq = %v", out16)
	}
	if len(outU) != 2 || outU[1] != 1<<60 {
		t.Fatalf("uint64 seq = %v", outU)
	}
}

func TestGenericSeqEmptyAndHostile(t *testing.T) {
	e := NewEncoder(0)
	PutSeq(e, nil, (*Encoder).PutInt16)
	d := NewDecoder(e.Bytes())
	if out := GetSeq(d, 2, (*Decoder).GetInt16); out != nil {
		t.Fatalf("empty seq = %v", out)
	}
	// Hostile length with no payload must not allocate.
	e2 := NewEncoder(0)
	e2.PutUint32(1 << 25)
	d2 := NewDecoder(e2.Bytes())
	if out := GetSeq(d2, 8, (*Decoder).GetUint64); out != nil {
		t.Fatalf("hostile seq = %d elems", len(out))
	}
	if d2.Err() == nil {
		t.Fatal("expected error")
	}
}

func TestPutRaw(t *testing.T) {
	e := NewEncoder(0)
	e.PutRaw([]byte{1, 2, 3})
	if e.Len() != 3 || e.Bytes()[2] != 3 {
		t.Fatalf("raw = %v", e.Bytes())
	}
}

func TestGetValueAfterError(t *testing.T) {
	d := NewDecoder(nil)
	d.GetUint32() // poisons the decoder
	var p point
	d.GetValue(&p) // must be a no-op, not a panic
	if d.Err() == nil {
		t.Fatal("error lost")
	}
}

// The sequence benchmarks run at a solver vector's length and at bulk's
// 64 KiB. Each has a baseline at the bulk length that does only what the
// coder cannot avoid: encoding copies the elements into a warm buffer, and
// decoding allocates the result. What a coder spends above its baseline is
// conversion.
var seqBenchLens = []int{128, 8192}

var sinkFloats []float64

func BenchmarkEncodeFloat64Seq(b *testing.B) {
	for _, n := range seqBenchLens {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			v := make([]float64, n)
			e := NewEncoder(8 + 8*n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Reset()
				e.PutFloat64Seq(v)
			}
		})
	}
	b.Run("8192/copy-only", func(b *testing.B) {
		src, buf := make([]byte, 8*8192), make([]byte, 8*8192)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
		}
	})
}

func BenchmarkDecodeFloat64Seq(b *testing.B) {
	for _, n := range seqBenchLens {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			e := NewEncoder(8 + 8*n)
			e.PutFloat64Seq(make([]float64, n))
			data := e.Bytes()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewDecoder(data)
				if sinkFloats = d.GetFloat64Seq(); sinkFloats == nil {
					b.Fatal("decode failed")
				}
			}
		})
	}
	b.Run("8192/alloc-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloats = make([]float64, 8192)
		}
	})
}
