package giop

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cdr"
)

// The wire format is pinned against the writer this package had before
// Write stopped copying bodies twice, kept here as the reference: the
// whole wire body — prefix, a freshly allocated pad, then the Body — went
// through an encoder with PutRaw, and refWriteOne appended it to a scratch
// buffer behind the header, whose size it writes byte by byte, low byte
// first.

func refEncodeBody(m *Message) []byte {
	e := cdr.NewEncoder(64 + len(m.Body))
	pad := func() []byte { return make([]byte, (8-e.Len()%8)%8) }
	switch m.Type {
	case MsgRequest:
		putContexts(e, m.Contexts)
		e.PutUint32(m.RequestID)
		e.PutBool(m.ResponseExpected)
		e.PutString(m.ObjectKey)
		e.PutString(m.Operation)
		e.PutRaw(pad())
		e.PutRaw(m.Body)
	case MsgReply:
		putContexts(e, m.Contexts)
		e.PutUint32(m.RequestID)
		e.PutUint32(uint32(m.ReplyStatus))
		e.PutRaw(pad())
		e.PutRaw(m.Body)
	case MsgCancelRequest:
		e.PutUint32(m.RequestID)
	case MsgLocateRequest:
		e.PutUint32(m.RequestID)
		e.PutString(m.ObjectKey)
	case MsgLocateReply:
		e.PutUint32(m.RequestID)
		e.PutUint32(uint32(m.LocateStatus))
		e.PutRaw(pad())
		e.PutRaw(m.Body)
	case MsgCloseConnection, MsgError:
		// no body
	}
	return e.Bytes()
}

func refWriteOne(w io.Writer, typ MsgType, flags byte, body []byte) error {
	buf := append([]byte(nil), Magic[:]...)
	buf = append(buf, Version, byte(typ), flags, 0)
	n := uint32(len(body))
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	buf = append(buf, body...)
	_, err := w.Write(buf)
	return err
}

func refWrite(w io.Writer, m *Message) error {
	body := refEncodeBody(m)
	if len(body) > MaxMessageSize {
		return ErrTooBig
	}
	frag := FragmentSize
	if frag < HeaderSize {
		frag = HeaderSize
	}
	if len(body) <= frag {
		return refWriteOne(w, m.Type, 0, body)
	}
	chunk := body[:frag]
	rest := body[frag:]
	if err := refWriteOne(w, m.Type, flagMoreFragments, chunk); err != nil {
		return err
	}
	for len(rest) > 0 {
		n := frag
		if n > len(rest) {
			n = len(rest)
		}
		flags := byte(0)
		if n < len(rest) {
			flags = flagMoreFragments
		}
		if err := refWriteOne(w, MsgFragment, flags, rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	return nil
}

// wireBody is m's wire body as Write frames it: the encoded prefix, then
// the Body of the kinds that carry one.
func wireBody(m *Message) []byte {
	e := cdr.NewEncoder(64 + len(m.Body))
	if m.encodePrefix(e) {
		e.PutRaw(m.Body)
	}
	return e.Bytes()
}

// goldenMessages is every message kind, with and without service contexts,
// with names that leave the prefix at each of the eight alignments and
// bodies from empty to several fragments long.
func goldenMessages(rng *rand.Rand) []*Message {
	ctxs := [][]ServiceContext{
		nil,
		{{ID: SCCheckpoint}},
		{{ID: SCTrace, Data: bytes.Repeat([]byte{0xAB}, 25)}, {ID: 0xDEADBEEF, Data: []byte("opaque")},
			{ID: SCCheckpoint, Data: bytes.Repeat([]byte{7}, 341)}},
	}
	body := func() []byte {
		b := make([]byte, []int{0, 1, 7, 8, 100, 1000, 5000}[rng.Intn(7)])
		rng.Read(b)
		return b
	}
	var msgs []*Message
	for _, cs := range ctxs {
		for pad := 0; pad < 8; pad++ {
			op := "op" + string(bytes.Repeat([]byte{'x'}, pad))
			msgs = append(msgs,
				&Message{Type: MsgRequest, RequestID: rng.Uint32(), ResponseExpected: pad%2 == 0,
					ObjectKey: "poa/obj", Operation: op, Contexts: cs, Body: body()},
				&Message{Type: MsgLocateRequest, RequestID: rng.Uint32(), ObjectKey: op, Body: body()})
		}
		msgs = append(msgs,
			&Message{Type: MsgReply, RequestID: rng.Uint32(), ReplyStatus: ReplyUserException, Contexts: cs, Body: body()},
			&Message{Type: MsgReply, RequestID: rng.Uint32(), Contexts: cs})
	}
	return append(msgs,
		&Message{Type: MsgCancelRequest, RequestID: rng.Uint32(), Body: body()},
		&Message{Type: MsgLocateReply, RequestID: rng.Uint32(), LocateStatus: LocateObjectForward, Body: body()},
		&Message{Type: MsgLocateReply, RequestID: rng.Uint32(), LocateStatus: LocateObjectHere},
		&Message{Type: MsgCloseConnection},
		&Message{Type: MsgError, Body: body()})
}

// TestWriteGoldenBytes checks that Write puts exactly the bytes on the wire
// that the two-copy writer did, unfragmented and across fragment sizes that
// cut inside the prefix, at its end and inside the body — and that an old
// reader (Read) and the FrameReader both take them back.
func TestWriteGoldenBytes(t *testing.T) {
	for _, frag := range []int{4 << 20, 4096, 64, 13, 1} {
		t.Run(fmt.Sprint("frag", frag), func(t *testing.T) {
			withFragmentSize(t, frag)
			rng := rand.New(rand.NewSource(int64(frag)))
			for i, m := range goldenMessages(rng) {
				var got, want bytes.Buffer
				if err := Write(&got, m); err != nil {
					t.Fatalf("message %d: Write: %v", i, err)
				}
				if err := refWrite(&want, m); err != nil {
					t.Fatalf("message %d: reference Write: %v", i, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("message %d (%v, %d contexts, %d byte body): wire bytes differ\n got %x\nwant %x",
						i, m.Type, len(m.Contexts), len(m.Body), got.Bytes(), want.Bytes())
				}
				old, err := Read(bytes.NewReader(got.Bytes()))
				if err != nil {
					t.Fatalf("message %d: Read: %v", i, err)
				}
				fr := NewFrameReader(bytes.NewReader(got.Bytes()), FrameReaderConfig{})
				var batch [1]*Message
				if n, err := fr.ReadBatch(batch[:]); n != 1 || err != nil {
					t.Fatalf("message %d: ReadBatch = %d, %v", i, n, err)
				}
				if old.Type != m.Type || !sameMessage(old, batch[0]) {
					t.Fatalf("message %d: Read and FrameReader disagree:\n%+v\n%+v", i, old, batch[0])
				}
				batch[0].Release()
				fr.Close()
			}
		})
	}
}

// TestHeaderBytesPerMessage pins the framing overhead the benchmark reports
// as giop.header_bytes_per_msg: 44 bytes around the body of an "echo"
// request.
func TestHeaderBytesPerMessage(t *testing.T) {
	m := &Message{Type: MsgRequest, RequestID: 1, ResponseExpected: true,
		ObjectKey: "echo", Operation: "echo", Body: make([]byte, 136)}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len() - len(m.Body); got != 44 {
		t.Fatalf("framing overhead = %d bytes, want 44", got)
	}
}

// TestWriteAllocatesNothing is the other half of the single copy: with the
// pad taken from a static array and the scratch pooled, a steady-state
// Write allocates nothing, whatever the size of the body.
func TestWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it is given under the race detector")
	}
	for _, size := range []int{136, 64 << 10} {
		m := &Message{Type: MsgRequest, RequestID: 1, ResponseExpected: true,
			ObjectKey: "echo", Operation: "echo", Body: make([]byte, size),
			Contexts: []ServiceContext{{ID: SCCheckpoint}}}
		if n := testing.AllocsPerRun(200, func() {
			if err := Write(io.Discard, m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Write of a %d byte body: %v allocs per message, want 0", size, n)
		}
	}
}
