package giop

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/cdr"
)

// Unknown service-context IDs must survive encode/decode verbatim:
// forward compatibility demands an SCTrace-unaware peer relay the
// context untouched rather than drop or corrupt it.
func TestUnknownServiceContextsPreserved(t *testing.T) {
	contexts := []ServiceContext{
		{ID: SCTrace, Data: bytes.Repeat([]byte{0xAB}, 25)},
		{ID: 0xDEADBEEF, Data: []byte("opaque-future-context")},
		{ID: 0x00000000, Data: nil},
		{ID: 0xFFFFFFFF, Data: []byte{1, 2, 3}},
	}
	for _, typ := range []MsgType{MsgRequest, MsgReply} {
		m := &Message{
			Type:      typ,
			RequestID: 7,
			Contexts:  append([]ServiceContext(nil), contexts...),
			Body:      []byte("payload"),
		}
		if typ == MsgRequest {
			m.ResponseExpected = true
			m.ObjectKey = "obj"
			m.Operation = "op"
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("%v write: %v", typ, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%v read: %v", typ, err)
		}
		if len(got.Contexts) != len(contexts) {
			t.Fatalf("%v: %d contexts survived, want %d", typ, len(got.Contexts), len(contexts))
		}
		for i, c := range got.Contexts {
			if c.ID != contexts[i].ID {
				t.Errorf("%v context %d: id %#x, want %#x", typ, i, c.ID, contexts[i].ID)
			}
			if !bytes.Equal(c.Data, contexts[i].Data) {
				t.Errorf("%v context %d: data %x, want %x", typ, i, c.Data, contexts[i].Data)
			}
		}
		if !bytes.Equal(got.Body, m.Body) {
			t.Errorf("%v: body corrupted after contexts: %q", typ, got.Body)
		}
	}
}

// A context count beyond the sanity bound must be a decode error, not a
// silently dropped list (which would leave the decoder misaligned and
// corrupt every field after it).
func TestOversizedContextCountIsError(t *testing.T) {
	e := cdr.NewEncoder(64)
	e.PutUint32(5000) // way past the 1024 bound
	e.PutUint32(42)   // would-be request id
	body := e.Bytes()

	var buf bytes.Buffer
	if err := writeOne(&buf, MsgReply, 0, nil, body); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("oversized context count decoded without error")
	}
}

func TestDeadlineRoundTrip(t *testing.T) {
	cases := []time.Duration{time.Nanosecond, time.Millisecond, 5 * time.Second, time.Hour}
	for _, d := range cases {
		got, ok := DecodeDeadline(EncodeDeadline(d))
		if !ok || got != d {
			t.Errorf("DecodeDeadline(EncodeDeadline(%v)) = %v, %v", d, got, ok)
		}
	}
}

func TestDeadlineZeroAndNegative(t *testing.T) {
	// Zero and negative remaining time encode as already-expired (zero):
	// decodable, with ok=true — the server sheds immediately.
	for _, d := range []time.Duration{0, -time.Second} {
		got, ok := DecodeDeadline(EncodeDeadline(d))
		if !ok || got != 0 {
			t.Errorf("deadline %v decoded to %v, %v; want 0, true", d, got, ok)
		}
	}
}

func TestDeadlineMalformedAndOverflow(t *testing.T) {
	if _, ok := DecodeDeadline(nil); ok {
		t.Error("nil payload decoded")
	}
	if _, ok := DecodeDeadline([]byte{1, 2, 3}); ok {
		t.Error("short payload decoded")
	}
	// Overflow: durations beyond 1<<62 ns are rejected (they would wrap
	// time.Duration arithmetic); the boundary value itself is accepted.
	enc := func(ns uint64) []byte {
		e := cdr.NewEncoder(8)
		e.PutUint64(ns)
		return e.Bytes()
	}
	if _, ok := DecodeDeadline(enc(uint64(1<<62) + 1)); ok {
		t.Error("overflow duration decoded")
	}
	if _, ok := DecodeDeadline(enc(^uint64(0))); ok {
		t.Error("max uint64 duration decoded")
	}
	if got, ok := DecodeDeadline(enc(uint64(1) << 62)); !ok || got != time.Duration(uint64(1)<<62) {
		t.Errorf("boundary duration = %v, %v", got, ok)
	}
}

func TestSetContextReplacesInPlace(t *testing.T) {
	m := &Message{Type: MsgRequest}
	m.SetContext(SCTrace, []byte("one"))
	m.SetContext(0xDEADBEEF, []byte("keep"))
	m.SetContext(SCTrace, []byte("two"))
	want := []ServiceContext{
		{ID: SCTrace, Data: []byte("two")},
		{ID: 0xDEADBEEF, Data: []byte("keep")},
	}
	if !reflect.DeepEqual(m.Contexts, want) {
		t.Fatalf("contexts = %v, want %v", m.Contexts, want)
	}
}
