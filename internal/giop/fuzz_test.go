package giop

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cdr"
)

// FuzzServiceContexts feeds arbitrary payloads to every service-context
// decoder giop owns (SCCheckpoint's are ft's, and fuzzed there). None may
// panic; whatever one accepts must re-encode to the same value (byte for
// byte where the layout is fixed); and DecodeQoS's tenant must not alias
// the payload, which lives in a pooled frame.
func FuzzServiceContexts(f *testing.F) {
	overflow := cdr.NewEncoder(8)
	overflow.PutUint64(uint64(1<<62) + 1)
	for _, seed := range [][]byte{
		nil,
		{1, 2, 3},
		EncodeDeadline(5 * time.Second),
		EncodeDeadline(0),
		overflow.Bytes(),
		EncodeRetryAfter(2500 * time.Millisecond),
		EncodeQoS(0, ""),
		EncodeQoS(2, "tenant-with-a-long-id-0123456789"),
		EncodeRetryAfter(0),
		EncodeQoS(1, "t"),
		bytes.Repeat([]byte{0xAB}, 600),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, ok := DecodeDeadline(data); ok {
			if again, ok := DecodeDeadline(EncodeDeadline(d)); !ok || again != d || d < 0 {
				t.Fatalf("deadline %v re-encodes to %v, %v", d, again, ok)
			}
		}
		if d, ok := DecodeRetryAfter(data); ok {
			if again, ok := DecodeRetryAfter(EncodeRetryAfter(d)); !ok || again != d || d < 0 {
				t.Fatalf("retry-after %v re-encodes to %v, %v", d, again, ok)
			}
		}
		scratch := append([]byte(nil), data...)
		if class, tenant, ok := DecodeQoS(scratch); ok {
			if again := EncodeQoS(class, tenant); !bytes.Equal(again, data) {
				t.Fatalf("QoS (%d, %q) re-encodes to %x, want %x", class, tenant, again, data)
			}
			for i := range scratch {
				scratch[i] ^= 0xFF
			}
			if tenant != string(data[1:]) {
				t.Fatalf("tenant %q aliases the payload", tenant)
			}
		}
	})
}

// sameMessage compares what a request or reply body decodes to.
func sameMessage(a, b *Message) bool {
	if a.RequestID != b.RequestID || a.ResponseExpected != b.ResponseExpected ||
		a.ObjectKey != b.ObjectKey || a.Operation != b.Operation ||
		a.ReplyStatus != b.ReplyStatus || !bytes.Equal(a.Body, b.Body) ||
		len(a.Contexts) != len(b.Contexts) {
		return false
	}
	for i := range a.Contexts {
		if a.Contexts[i].ID != b.Contexts[i].ID || !bytes.Equal(a.Contexts[i].Data, b.Contexts[i].Data) {
			return false
		}
	}
	return true
}

// FuzzDecodeMessage feeds arbitrary bytes to the request/reply body
// decoder, plain and interning. It may refuse them but not panic; what it
// accepts must survive an encode/decode round trip unchanged, and the
// interning decoder must agree with the plain one.
func FuzzDecodeMessage(f *testing.F) {
	request := &Message{
		Type: MsgRequest, RequestID: 7, ResponseExpected: true, ObjectKey: "obj", Operation: "op",
		Contexts: []ServiceContext{
			{ID: SCTrace, Data: bytes.Repeat([]byte{0xAB}, 25)},
			{ID: 0xDEADBEEF, Data: []byte("opaque-future-context")},
			{ID: SCCheckpoint},
		},
		Body: []byte("payload"),
	}
	reply := &Message{
		Type: MsgReply, RequestID: 7, ReplyStatus: ReplyUserException,
		Contexts: []ServiceContext{{ID: SCCheckpoint, Data: []byte("capture-header-24-bytes-state")}},
		Body:     []byte("result"),
	}
	f.Add(false, wireBody(request))
	f.Add(true, wireBody(reply))
	f.Add(true, wireBody(&Message{Type: MsgReply}))
	// A context count past the sanity bound, then a would-be request id.
	oversized := cdr.NewEncoder(16)
	oversized.PutUint32(5000)
	oversized.PutUint32(42)
	f.Add(true, oversized.Bytes())
	// Two contexts announced, the second one's data cut short; and a list
	// that ends right after its count.
	truncated := cdr.NewEncoder(32)
	truncated.PutUint32(2)
	truncated.PutUint32(SCDeadline)
	truncated.PutBytes(EncodeDeadline(time.Second))
	truncated.PutUint32(SCQoS)
	truncated.PutUint32(64)
	truncated.PutRaw([]byte("short"))
	f.Add(false, truncated.Bytes())
	f.Add(false, []byte{0, 0, 0, 3})
	whole := wireBody(request)
	f.Add(false, whole[:len(whole)/2])

	f.Fuzz(func(t *testing.T, isReply bool, data []byte) {
		typ := MsgRequest
		if isReply {
			typ = MsgReply
		}
		m := &Message{Type: typ}
		err := m.decodeBody(data)
		interned := &Message{Type: typ}
		ierr := interned.decodeBodyIn(data, NewInterner())
		if (err == nil) != (ierr == nil) {
			t.Fatalf("plain decode: %v, interning decode: %v", err, ierr)
		}
		if err != nil {
			return
		}
		if !sameMessage(m, interned) {
			t.Fatalf("interning decode differs:\n%+v\n%+v", m, interned)
		}
		again := &Message{Type: typ}
		if err := again.decodeBody(wireBody(m)); err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !sameMessage(m, again) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, again)
		}
	})
}
