package obs

import (
	"bytes"
	"context"
	"testing"
)

// FuzzTraceContext feeds arbitrary payloads to the SCTrace decoder. It
// must not panic; a payload it accepts has the fixed length and a non-zero
// trace id, and re-encodes to the same bytes but for the unused flag bits.
func FuzzTraceContext(f *testing.F) {
	tr := NewTracer("fuzz")
	_, span := tr.Start(context.Background(), "seed")
	f.Add(EncodeTraceContext(span.Context()))
	f.Add(EncodeTraceContext(SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}}))
	f.Add([]byte(nil))
	f.Add(make([]byte, 10))
	f.Add(make([]byte, traceContextLen))
	f.Add(bytes.Repeat([]byte{0xFF}, traceContextLen))
	f.Add(bytes.Repeat([]byte{0xFF}, traceContextLen+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, ok := DecodeTraceContext(data)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected payload still decoded to %+v", sc)
			}
			return
		}
		if len(data) != traceContextLen || sc.TraceID.IsZero() {
			t.Fatalf("accepted a %d-byte payload with trace id %v", len(data), sc.TraceID)
		}
		want := append([]byte(nil), data...)
		want[traceContextLen-1] &= 1
		if again := EncodeTraceContext(sc); !bytes.Equal(again, want) {
			t.Fatalf("%+v re-encodes to %x, want %x", sc, again, want)
		}
	})
}
