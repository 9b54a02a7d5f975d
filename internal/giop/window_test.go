package giop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/cdr"
)

// raceEnabled is set in race_test.go: under the race detector sync.Pool
// drops a quarter of what it is given, so counts of recycled windows are
// looser there.
var raceEnabled bool

// endlessReader replays a stream for ever, like the benchmark's
// loopReader, in reads of at most chunk bytes (0: as much as fits).
type endlessReader struct {
	data  []byte
	off   int
	chunk int
}

func (r *endlessReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	if r.chunk > 0 && len(p) > r.chunk {
		p = p[:r.chunk]
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestLargeFramesAliasPooledWindows: a frame larger than the reader's
// window but within the retention limit is delivered in a window grown to
// fit — its body aliases the window exactly as a small frame's does — and
// a stream of such frames alternates between the same few windows: none is
// allocated per frame, whether each message is released before the next
// read or only after it.
func TestLargeFramesAliasPooledWindows(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 64<<10+8) // a sequence<double> of 8192
	stream := encodeStream(t, req(1, "echo", body))
	for _, lag := range []int{0, 1, 2} { // messages still held when the next is read
		for _, chunk := range []int{0, 16 << 10} {
			t.Run(fmt.Sprintf("held%d/chunk%d", lag, chunk), func(t *testing.T) {
				fr := NewFrameReader(&endlessReader{data: stream, chunk: chunk}, FrameReaderConfig{})
				defer fr.Close()
				var held []*Message
				read := func(k int) {
					var batch [4]*Message
					for i := 0; i < k; i++ {
						n, err := fr.ReadBatch(batch[:])
						if n != 1 || err != nil {
							t.Fatalf("ReadBatch = %d, %v; want one large frame at a time", n, err)
						}
						m := batch[0]
						if m.buf == nil {
							t.Fatal("a frame within the retention limit got a buffer of its own")
						}
						if !bytes.Equal(m.Body, body) {
							t.Fatalf("frame %d: body corrupted", i)
						}
						held = append(held, m)
						for len(held) > lag {
							held[0].Release()
							held = held[1:]
						}
					}
				}
				read(8) // warm-up: the windows this stream needs come into being
				before := WindowAllocs()
				const frames = 400
				read(frames)
				grew := WindowAllocs() - before
				limit := uint64(0)
				if raceEnabled {
					limit = frames / 2
				}
				if grew > limit {
					t.Fatalf("%d windows allocated over %d frames at steady state, want at most %d", grew, frames, limit)
				}
				for _, m := range held {
					m.Release()
				}
			})
		}
	}
}

// TestWindowReturnsToDefaultAfterLargeFrames: the window grows for large
// frames and goes back to the default once they stop, so a connection that
// carried one bulk message does not pin a large window for ever.
func TestWindowReturnsToDefaultAfterLargeFrames(t *testing.T) {
	big := req(1, "bulk", bytes.Repeat([]byte{1}, 300<<10))
	var msgs []*Message
	msgs = append(msgs, big)
	for i := 0; i < 6000; i++ { // more small frames than the grown window holds
		msgs = append(msgs, req(uint32(i+2), "small", make([]byte, 100)))
	}
	fr := NewFrameReader(&chunkReader{data: encodeStream(t, msgs...), chunk: 8 << 10}, FrameReaderConfig{})
	defer fr.Close()
	batch := make([]*Message, 32)
	var hold *Message // one message always outstanding, so the reader must swap windows
	seen := 0
	for seen < len(msgs) {
		n, err := fr.ReadBatch(batch)
		if err != nil {
			t.Fatalf("ReadBatch after %d frames: %v", seen, err)
		}
		for _, m := range batch[:n] {
			seen++
			hold.Release()
			hold = m
		}
	}
	hold.Release()
	if got := len(fr.buf.data); got != defaultFrameBufSize {
		t.Fatalf("window is %d bytes after the large frame is long gone, want %d", got, defaultFrameBufSize)
	}
}

// TestFrameBeyondRetentionLimitOwnsItsBody: past the retention limit the
// body is read into a buffer of its own, grown as bytes arrive, and no
// window is allocated for it.
func TestFrameBeyondRetentionLimitOwnsItsBody(t *testing.T) {
	body := bytes.Repeat([]byte{0xCD}, 2*cdr.RetainLimit)
	stream := encodeStream(t, req(3, "huge", body), req(4, "after", []byte("x")))
	fr := NewFrameReader(&chunkReader{data: stream, chunk: 100 << 10}, FrameReaderConfig{})
	defer fr.Close()
	before := WindowAllocs()
	var got []*Message
	batch := make([]*Message, 2)
	for len(got) < 2 {
		n, err := fr.ReadBatch(batch)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		got = append(got, batch[:n]...)
	}
	if got[0].buf != nil || !bytes.Equal(got[0].Body, body) {
		t.Fatalf("huge frame: aliases a window = %v, body intact = %v", got[0].buf != nil, bytes.Equal(got[0].Body, body))
	}
	if got[1].RequestID != 4 || string(got[1].Body) != "x" {
		t.Fatalf("frame after the huge one: %+v", got[1])
	}
	if n := WindowAllocs() - before; n != 0 {
		t.Fatalf("%d windows allocated for a frame beyond the retention limit", n)
	}
	got[0].Release()
	got[1].Release()
}

// TestWindowPoolsReachTheRetentionLimit ties the number of window classes
// to the limit they are meant to cover.
func TestWindowPoolsReachTheRetentionLimit(t *testing.T) {
	if largest := 1 << (len(windowPools) - 1); largest != cdr.RetainLimit {
		t.Fatalf("the largest window class is %d bytes, cdr.RetainLimit is %d", largest, cdr.RetainLimit)
	}
}

// TestLyingHeaderCannotForceAllocation: a header may declare up to
// MaxMessageSize and send nothing. What it costs up front is bounded by
// the retention limit, whichever path the declared size selects.
func TestLyingHeaderCannotForceAllocation(t *testing.T) {
	for _, declared := range []uint32{cdr.RetainLimit / 2, cdr.RetainLimit - HeaderSize, cdr.RetainLimit, 8 << 20, MaxMessageSize} {
		raw := append([]byte{}, Magic[:]...)
		raw = append(raw, Version, byte(MsgRequest), 0, 0,
			byte(declared), byte(declared>>8), byte(declared>>16), byte(declared>>24))
		raw = append(raw, "only a few bytes follow"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := NewFrameReader(&chunkReader{data: raw}, FrameReaderConfig{})
		var batch [1]*Message
		n, err := fr.ReadBatch(batch[:])
		runtime.ReadMemStats(&after)
		fr.Close()
		if n != 0 || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("declared %d: ReadBatch = %d, %v; want 0, unexpected EOF", declared, n, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > cdr.RetainLimit+defaultFrameBufSize+4096 {
			t.Errorf("declared %d: %d bytes allocated before a byte of the body arrived", declared, got)
		}
	}
}

// readOne reads one raw protocol message: its type, flags and body.
func readOne(r io.Reader) (MsgType, byte, []byte, error) {
	hdr := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, nil, ErrShortHeader
		}
		return 0, 0, nil, err
	}
	if [4]byte(hdr[:4]) != Magic {
		return 0, 0, nil, ErrBadMagic
	}
	if hdr[4] != Version {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	typ := MsgType(hdr[5])
	if typ > MsgFragment {
		return 0, 0, nil, fmt.Errorf("giop: unknown message type %d", hdr[5])
	}
	n := uint32(hdr[8]) | uint32(hdr[9])<<8 | uint32(hdr[10])<<16 | uint32(hdr[11])<<24
	if n > MaxMessageSize {
		return 0, 0, nil, ErrTooBig
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return typ, hdr[6], body, nil
}

// Read decodes the next protocol message from r, transparently
// reassembling fragment trains: the reference reader, one message and
// one allocation per frame, that the tests hold FrameReader to.
func Read(r io.Reader) (*Message, error) {
	typ, flags, body, err := readOne(r)
	if err != nil {
		return nil, err
	}
	if typ == MsgFragment {
		return nil, ErrOrphanFragment
	}
	for flags&flagMoreFragments != 0 {
		ft, fFlags, chunk, err := readOne(r)
		if err != nil {
			return nil, err
		}
		if ft != MsgFragment {
			return nil, fmt.Errorf("giop: expected Fragment continuation, got %v", ft)
		}
		if len(body)+len(chunk) > MaxMessageSize {
			return nil, ErrTooBig
		}
		body = append(body, chunk...)
		flags = fFlags
	}
	m := &Message{Type: typ}
	if err := m.decodeBodyIn(body, nil); err != nil {
		return nil, fmt.Errorf("giop: decoding %v: %w", m.Type, err)
	}
	return m, nil
}

// decodeBody parses the type-specific portion into m.
func (m *Message) decodeBody(data []byte) error {
	return m.decodeBodyIn(data, nil)
}

// rawUnit is one logical message as it sits on the wire: its kind and its
// reassembled wire body, before decoding.
type rawUnit struct {
	typ  MsgType
	body []byte
}

// readUnits cuts a stream into logical messages the way Read does — one
// readOne per frame, fragments appended — stopping at the first thing Read
// would refuse.
func readUnits(stream []byte) []rawUnit {
	r := bytes.NewReader(stream)
	var units []rawUnit
	for {
		typ, flags, body, err := readOne(r)
		if err != nil || typ == MsgFragment {
			return units
		}
		for flags&flagMoreFragments != 0 {
			ft, fflags, chunk, err := readOne(r)
			if err != nil || ft != MsgFragment {
				return units
			}
			body = append(body, chunk...)
			flags = fflags
		}
		units = append(units, rawUnit{typ, body})
	}
}

// FuzzFrameReader delivers arbitrary bytes, in fuzzer-chosen chunk sizes,
// to a reader with a small window and a small MaxBody, holding on to a
// fuzzer-chosen subset of the messages while it reads on. It must not
// panic or spin; every message it delivers must equal, in order, what Read
// decodes from the same stream (requests beyond MaxBody reported as
// *TooBigError instead); held bodies must survive every window swap; and
// once everything is released and the reader closed, every window it ever
// used must have a reference count of zero.
func FuzzFrameReader(f *testing.F) {
	stream := func(frag int, msgs ...*Message) []byte {
		old := FragmentSize
		FragmentSize = frag
		defer func() { FragmentSize = old }()
		var buf bytes.Buffer
		for _, m := range msgs {
			if err := Write(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	ctxs := []ServiceContext{{ID: SCCheckpoint, Data: []byte("capture-header-24-bytes-state")}, {ID: 0xDEADBEEF, Data: []byte("opaque")}}
	mixed := []*Message{
		req(1, "echo", []byte("abcdefgh")),
		{Type: MsgReply, RequestID: 1, ReplyStatus: ReplyUserException, Contexts: ctxs, Body: bytes.Repeat([]byte{7}, 300)},
		{Type: MsgLocateRequest, RequestID: 2, ObjectKey: "k"},
		{Type: MsgLocateReply, RequestID: 2, LocateStatus: LocateObjectHere},
		{Type: MsgCancelRequest, RequestID: 9},
		req(3, "bulk", bytes.Repeat([]byte("0123456789abcdef"), 40)),
		req(4, "after", nil),
		{Type: MsgCloseConnection},
	}
	whole := stream(4<<20, mixed...)
	f.Add(whole, []byte{255}, uint8(0), uint16(4096), uint8(0))
	f.Add(whole, []byte{0}, uint8(0), uint16(64), uint8(0xAA)) // dribbled, oversize requests
	f.Add(stream(64, mixed...), []byte{6, 0, 40}, uint8(20), uint16(4096), uint8(0xFF))
	f.Add(stream(16, mixed...), []byte{12, 3}, uint8(100), uint16(200), uint8(0x0F))         // trains that outgrow MaxBody
	f.Add(whole[:len(whole)-20], []byte{30}, uint8(50), uint16(4096), uint8(1))              // torn
	f.Add(stream(32, mixed[5])[HeaderSize+32:], []byte{9}, uint8(0), uint16(4096), uint8(0)) // orphan fragment
	f.Add([]byte("garbage-not-a-header"), []byte{1}, uint8(0), uint16(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, chunks []byte, bufSize uint8, maxBody uint16, hold uint8) {
		cfg := FrameReaderConfig{BufSize: 1 + int(bufSize), MaxBody: 16 + int(maxBody)}

		// What Read makes of the stream, with the reader's cap applied.
		type event struct {
			m      *Message // nil: a request refused as too big
			tooBig int
		}
		var want []event
		for _, u := range readUnits(data) {
			if len(u.body) > cfg.MaxBody {
				if u.typ != MsgRequest {
					break // fatal for anything but a request
				}
				want = append(want, event{tooBig: len(u.body)})
				continue
			}
			m := &Message{Type: u.typ}
			if m.decodeBody(u.body) != nil {
				break
			}
			want = append(want, event{m: m})
		}

		src := &fuzzChunks{data: data, sizes: chunks}
		fr := NewFrameReader(src, cfg)
		windows := map[*frameBuf]bool{fr.buf: true}
		type heldMsg struct {
			m    *Message
			want *Message
		}
		var held []heldMsg
		check := func(got, want *Message) {
			if got.Type != want.Type || got.LocateStatus != want.LocateStatus || !sameMessage(got, want) {
				t.Fatalf("delivered message differs from what Read decodes:\n got %+v\nwant %+v", got, want)
			}
		}
		seen := 0
		batch := make([]*Message, 3)
		for calls := 0; ; calls++ {
			if calls > 4*len(data)+16 {
				t.Fatalf("reader still going after %d calls on %d bytes", calls, len(data))
			}
			n, err := fr.ReadBatch(batch)
			windows[fr.buf] = true
			for _, m := range batch[:n] {
				if m.buf != nil {
					windows[m.buf] = true
				}
				if seen >= len(want) || want[seen].m == nil {
					t.Fatalf("event %d: delivered %+v, Read has %d events and this is not a message", seen, m, len(want))
				}
				check(m, want[seen].m)
				if hold>>(seen%8)&1 == 1 {
					held = append(held, heldMsg{m, want[seen].m})
				} else {
					m.Release()
				}
				seen++
			}
			var tbe *TooBigError
			if errors.As(err, &tbe) {
				if seen >= len(want) || want[seen].m != nil || tbe.Declared > want[seen].tooBig || tbe.Limit != cfg.MaxBody {
					t.Fatalf("event %d of %d: unexpected %v", seen, len(want), tbe)
				}
				seen++
				continue
			}
			if err != nil {
				break
			}
		}
		if seen != len(want) {
			t.Fatalf("reader delivered %d events, Read %d", seen, len(want))
		}
		for _, h := range held {
			check(h.m, h.want) // nothing read since overwrote a held body
			h.m.Release()
		}
		fr.Close()
		for w := range windows {
			if n := w.refs.Load(); n != 0 {
				t.Fatalf("a window is left with %d references after every message was released", n)
			}
		}
	})
}

// fuzzChunks hands out data in reads whose sizes cycle through sizes
// (each byte + 1), then io.EOF.
type fuzzChunks struct {
	data  []byte
	sizes []byte
	i     int
}

func (r *fuzzChunks) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.sizes) > 0 {
		n = min(n, 1+int(r.sizes[r.i%len(r.sizes)]))
		r.i++
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	return n, nil
}
