package giop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
	"unsafe"
)

// unsafeStringData exposes a string's backing pointer so tests can assert
// two strings are the same interned allocation, not merely equal.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// encodeStream renders msgs back to back the way they appear on a wire.
func encodeStream(t *testing.T, msgs ...*Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	return buf.Bytes()
}

func req(id uint32, op string, body []byte) *Message {
	return &Message{
		Type:             MsgRequest,
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        "poa/obj",
		Operation:        op,
		Body:             body,
	}
}

// chunkReader returns its data in fixed-size chunks, one per Read call,
// simulating a transport that delivers several frames per syscall (large
// chunks) or dribbles bytes (chunk 1).
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n <= 0 || n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func TestFrameReaderBatchesBufferedFrames(t *testing.T) {
	msgs := make([]*Message, 8)
	for i := range msgs {
		msgs[i] = req(uint32(i+1), "echo", []byte{byte(i)})
	}
	stream := encodeStream(t, msgs...)
	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{})
	defer fr.Close()

	batch := make([]*Message, 16)
	n, err := fr.ReadBatch(batch)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if n != 8 {
		t.Fatalf("batch size = %d, want 8 (all buffered frames in one batch)", n)
	}
	for i, m := range batch[:n] {
		if m.RequestID != uint32(i+1) || m.Operation != "echo" || m.ObjectKey != "poa/obj" {
			t.Fatalf("frame %d decoded wrong: %+v", i, m)
		}
		if !bytes.Equal(m.Body, []byte{byte(i)}) {
			t.Fatalf("frame %d body = %v", i, m.Body)
		}
	}
	reads, frames := fr.Stats()
	if reads != 1 || frames != 8 {
		t.Fatalf("stats reads=%d frames=%d, want 1 read carrying 8 frames", reads, frames)
	}
	for _, m := range batch[:n] {
		m.Release()
	}
}

func TestFrameReaderDribbledBytes(t *testing.T) {
	stream := encodeStream(t, req(1, "slow", []byte("abcdefgh")), req(2, "slow", nil))
	fr := NewFrameReader(&chunkReader{data: stream, chunk: 1}, FrameReaderConfig{})
	defer fr.Close()

	var got []uint32
	batch := make([]*Message, 4)
	for {
		n, err := fr.ReadBatch(batch)
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("ReadBatch: %v", err)
		}
		for _, m := range batch[:n] {
			got = append(got, m.RequestID)
			m.Release()
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got ids %v, want [1 2]", got)
	}
}

func TestFrameReaderInternsHotStrings(t *testing.T) {
	stream := encodeStream(t, req(1, "echo", nil), req(2, "echo", nil))
	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{})
	defer fr.Close()

	batch := make([]*Message, 4)
	n, err := fr.ReadBatch(batch)
	if err != nil || n != 2 {
		t.Fatalf("ReadBatch: n=%d err=%v", n, err)
	}
	// Interned strings are the same allocation, not merely equal.
	if unsafeStringData(batch[0].Operation) != unsafeStringData(batch[1].Operation) {
		t.Fatalf("operation strings not interned")
	}
	if unsafeStringData(batch[0].ObjectKey) != unsafeStringData(batch[1].ObjectKey) {
		t.Fatalf("object key strings not interned")
	}
	batch[0].Release()
	batch[1].Release()
}

func TestFrameReaderFragmentTrain(t *testing.T) {
	old := FragmentSize
	FragmentSize = 64
	defer func() { FragmentSize = old }()

	body := bytes.Repeat([]byte("0123456789abcdef"), 40) // 640 bytes: several fragments
	stream := encodeStream(t, req(7, "bulk", body), req(8, "after", nil))
	FragmentSize = old // only fragment the writes above

	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{})
	defer fr.Close()

	var got []*Message
	batch := make([]*Message, 4)
	for len(got) < 2 {
		n, err := fr.ReadBatch(batch)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		got = append(got, batch[:n]...)
	}
	if got[0].RequestID != 7 || !bytes.Equal(got[0].Body, body) {
		t.Fatalf("fragmented message wrong: id=%d len=%d", got[0].RequestID, len(got[0].Body))
	}
	if got[1].RequestID != 8 {
		t.Fatalf("message after train: %+v", got[1])
	}
	for _, m := range got {
		m.Release()
	}
}

func TestFrameReaderLargeBody(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 200<<10) // 200 KiB > 64 KiB window
	stream := encodeStream(t, req(3, "big", body))
	fr := NewFrameReader(&chunkReader{data: stream, chunk: 8 << 10}, FrameReaderConfig{})
	defer fr.Close()

	batch := make([]*Message, 1)
	n, err := fr.ReadBatch(batch)
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch: n=%d err=%v", n, err)
	}
	if !bytes.Equal(batch[0].Body, body) {
		t.Fatalf("large body corrupted: len=%d", len(batch[0].Body))
	}
	batch[0].Release()
}

func TestFrameReaderOversizeRequestSurvives(t *testing.T) {
	big := req(9, "upload", bytes.Repeat([]byte{1}, 8<<10))
	stream := encodeStream(t, big, req(10, "after", nil))
	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{MaxBody: 1 << 10})
	defer fr.Close()

	batch := make([]*Message, 4)
	_, err := fr.ReadBatch(batch)
	var tbe *TooBigError
	if !errors.As(err, &tbe) {
		t.Fatalf("ReadBatch err = %v, want *TooBigError", err)
	}
	if tbe.RequestID != 9 || !tbe.ResponseExpected || tbe.Operation != "upload" {
		t.Fatalf("TooBigError identity wrong: %+v", tbe)
	}
	if tbe.Limit != 1<<10 || tbe.Declared < 8<<10 {
		t.Fatalf("TooBigError sizes wrong: %+v", tbe)
	}
	// The oversized frame was drained: the stream keeps working.
	n, err := fr.ReadBatch(batch)
	if err != nil || n != 1 || batch[0].RequestID != 10 {
		t.Fatalf("stream after oversize: n=%d err=%v", n, err)
	}
	batch[0].Release()
}

func TestFrameReaderOversizeFragmentTrain(t *testing.T) {
	old := FragmentSize
	FragmentSize = 512
	body := bytes.Repeat([]byte{2}, 4<<10)
	stream := encodeStream(t, req(11, "train", body), req(12, "after", nil))
	FragmentSize = old

	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{MaxBody: 1 << 10})
	defer fr.Close()

	batch := make([]*Message, 4)
	_, err := fr.ReadBatch(batch)
	var tbe *TooBigError
	if !errors.As(err, &tbe) {
		t.Fatalf("ReadBatch err = %v, want *TooBigError", err)
	}
	if tbe.RequestID != 11 || tbe.Operation != "train" {
		t.Fatalf("TooBigError identity wrong: %+v", tbe)
	}
	n, err := fr.ReadBatch(batch)
	if err != nil || n != 1 || batch[0].RequestID != 12 {
		t.Fatalf("stream after oversized train: n=%d err=%v", n, err)
	}
	batch[0].Release()
}

func TestFrameReaderHugeDeclaredBodyIsFatal(t *testing.T) {
	raw := append([]byte{}, Magic[:]...)
	raw = append(raw, Version, byte(MsgRequest), 0, 0, 0xFF, 0xFF, 0xFF, 0xFF)
	fr := NewFrameReader(&chunkReader{data: raw}, FrameReaderConfig{})
	defer fr.Close()

	batch := make([]*Message, 1)
	if _, err := fr.ReadBatch(batch); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
	// Fatal errors are sticky.
	if _, err := fr.ReadBatch(batch); !errors.Is(err, ErrTooBig) {
		t.Fatalf("sticky err = %v, want ErrTooBig", err)
	}
}

// TestFrameReaderRefusesVersion1: a frame as a version-1 peer writes it —
// its size, like its body, big-endian — is refused on its header, before
// the byte-swapped size or any body byte is read.
func TestFrameReaderRefusesVersion1(t *testing.T) {
	stream := encodeStream(t, req(1, "echo", []byte("abcdefgh")))
	n := len(stream) - HeaderSize
	stream[4] = 1
	stream[8], stream[9], stream[10], stream[11] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{})
	defer fr.Close()
	batch := make([]*Message, 1)
	for range 2 { // fatal errors are sticky
		if k, err := fr.ReadBatch(batch); k != 0 || !errors.Is(err, ErrBadVersion) {
			t.Fatalf("ReadBatch = %d, %v; want 0, ErrBadVersion", k, err)
		}
	}
}

func TestFrameReaderBadMagicIsFatal(t *testing.T) {
	fr := NewFrameReader(&chunkReader{data: []byte("garbage-not-a-header")}, FrameReaderConfig{})
	defer fr.Close()
	batch := make([]*Message, 1)
	if _, err := fr.ReadBatch(batch); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// guardReader hands out a frame in two halves so the reader must issue a
// mid-frame read, then records the deadline calls the guard makes.
func TestFrameReaderSlowLorisGuard(t *testing.T) {
	stream := encodeStream(t, req(1, "drip", []byte("0123456789abcdef")))
	half := len(stream) / 2
	var deadlines []time.Time
	r := &chunkReader{data: stream, chunk: half}
	fr := NewFrameReader(r, FrameReaderConfig{
		FrameTimeout:    time.Second,
		SetReadDeadline: func(d time.Time) error { deadlines = append(deadlines, d); return nil },
	})
	defer fr.Close()

	batch := make([]*Message, 1)
	n, err := fr.ReadBatch(batch)
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch: n=%d err=%v", n, err)
	}
	batch[0].Release()
	if len(deadlines) < 2 {
		t.Fatalf("deadline calls = %d, want arm + disarm", len(deadlines))
	}
	if deadlines[0].IsZero() {
		t.Fatalf("guard armed with zero deadline")
	}
	if !deadlines[len(deadlines)-1].IsZero() {
		t.Fatalf("guard not disarmed at frame boundary: %v", deadlines)
	}
}

func TestFrameReaderReplyMessages(t *testing.T) {
	reply := &Message{Type: MsgReply, RequestID: 5, ReplyStatus: ReplySystemException, Body: []byte("boom")}
	stream := encodeStream(t, reply)
	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{})
	defer fr.Close()
	batch := make([]*Message, 1)
	n, err := fr.ReadBatch(batch)
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch: n=%d err=%v", n, err)
	}
	m := batch[0]
	if m.Type != MsgReply || m.RequestID != 5 || m.ReplyStatus != ReplySystemException || string(m.Body) != "boom" {
		t.Fatalf("reply decoded wrong: %+v", m)
	}
	m.Release()
}

// TestFrameReaderBufferRecycling releases messages out of order across a
// window swap and checks nothing corrupts: the refcounting must keep the
// first window alive while its last message is outstanding.
func TestFrameReaderBufferRecycling(t *testing.T) {
	// Frames sized so several windows' worth stream through a small window.
	var msgs []*Message
	for i := 0; i < 64; i++ {
		msgs = append(msgs, req(uint32(i), fmt.Sprintf("op%d", i%4), bytes.Repeat([]byte{byte(i)}, 300)))
	}
	stream := encodeStream(t, msgs...)
	fr := NewFrameReader(&chunkReader{data: stream, chunk: 700}, FrameReaderConfig{BufSize: 1024})
	defer fr.Close()

	var held []*Message
	batch := make([]*Message, 8)
	for {
		n, err := fr.ReadBatch(batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		held = append(held, batch[:n]...)
		// Release every other message immediately; hold the rest.
		if len(held) >= 2 {
			m := held[len(held)-2]
			if int(m.RequestID)%2 == 0 {
				if !bytes.Equal(m.Body, bytes.Repeat([]byte{byte(m.RequestID)}, 300)) {
					t.Fatalf("body corrupted for %d before release", m.RequestID)
				}
			}
		}
	}
	if len(held) != 64 {
		t.Fatalf("parsed %d frames, want 64", len(held))
	}
	for _, m := range held {
		if !bytes.Equal(m.Body, bytes.Repeat([]byte{byte(m.RequestID)}, 300)) {
			t.Fatalf("body corrupted for held message %d", m.RequestID)
		}
		m.Release()
	}
}

func TestReadBatchStampsAdmission(t *testing.T) {
	msgs := make([]*Message, 3)
	for i := range msgs {
		msgs[i] = req(uint32(i+1), "echo", []byte{byte(i)})
	}
	stream := encodeStream(t, msgs...)
	fr := NewFrameReader(&chunkReader{data: stream}, FrameReaderConfig{})
	defer fr.Close()

	before := time.Now()
	batch := make([]*Message, 8)
	n, err := fr.ReadBatch(batch)
	after := time.Now()
	if err != nil || n != 3 {
		t.Fatalf("ReadBatch = %d, %v", n, err)
	}
	stamp := batch[0].Received
	if stamp.IsZero() {
		t.Fatal("delivered message has a zero Received stamp")
	}
	if stamp.Before(before) || stamp.After(after) {
		t.Fatalf("Received %v outside [%v, %v]", stamp, before, after)
	}
	// One clock read per batch: every message in the batch shares it.
	for i, m := range batch[:n] {
		if !m.Received.Equal(stamp) {
			t.Fatalf("frame %d Received %v != batch stamp %v", i, m.Received, stamp)
		}
	}
	// Release must clear the stamp so pooled reuse can't leak an old
	// admission time into a locally built message.
	m := batch[0]
	m.Release()
	fresh := AcquireMessage()
	if !fresh.Received.IsZero() {
		t.Fatal("pooled message carries a stale Received stamp")
	}
	fresh.Release()
	for _, m := range batch[1:n] {
		m.Release()
	}
}
