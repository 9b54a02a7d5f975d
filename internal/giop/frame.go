package giop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
)

// This file implements the ingest path of both ends of a connection — the
// server's reactor and the client's reply reader: a FrameReader that
// drains as many protocol frames as one read syscall delivers into a
// pooled, refcounted buffer, and hands out pooled Messages whose bodies
// alias that buffer instead of copying it. Together with the Message pool
// (AcquireMessage/Release) and the string Interner this takes the steady
// state of oneway dispatch to zero allocations per frame.

// defaultFrameBufSize is the read-window size: large enough that a burst of
// call-sized frames arrives in one syscall, small enough to pool freely.
const defaultFrameBufSize = 64 << 10

// frameBuf is a refcounted read buffer. The FrameReader holds one
// reference while it parses out of the buffer; every Message whose body
// aliases the buffer holds another. The buffer returns to the pool when
// the last reference is released, which is what makes body aliasing safe
// even though dispatches complete out of order.
type frameBuf struct {
	data []byte // the window: its length is what the reader asked for, its capacity what the pool keeps
	refs atomic.Int32
}

// windowPools recycles read windows by capacity: windowPools[k] holds
// windows of exactly 1<<k bytes, up to cdr.RetainLimit (1<<20). A reader
// therefore always draws a window that fits, readers of small frames never
// pin large windows, and frames of slightly different sizes share a class.
var windowPools [21]sync.Pool

// windowAllocs counts the windows allocated rather than recycled.
var windowAllocs atomic.Uint64

// WindowAllocs reports how many read windows this process has allocated
// rather than drawn from a pool. At steady state it all but stands still:
// a connection goes round the same few windows whatever its frame size,
// which is what the allocation tests of this layer and of the ORB assert.
func WindowAllocs() uint64 { return windowAllocs.Load() }

// windowClass is the pool index of the smallest window holding size bytes.
func windowClass(size int) int { return bits.Len(uint(size - 1)) }

// newFrameBuf returns a window of size bytes holding one reference.
func newFrameBuf(size int) *frameBuf {
	k := windowClass(size)
	var b *frameBuf
	if size <= cdr.RetainLimit {
		b, _ = windowPools[k].Get().(*frameBuf)
	}
	if b == nil {
		b = &frameBuf{data: make([]byte, 1<<k)}
		windowAllocs.Add(1)
	}
	b.data = b.data[:size]
	b.refs.Store(1)
	return b
}

func (b *frameBuf) ref() { b.refs.Add(1) }

// unref drops one reference; the last one returns the window to its pool,
// unless it is larger than anything the data path retains.
func (b *frameBuf) unref() {
	if b.refs.Add(-1) == 0 && cap(b.data) <= cdr.RetainLimit {
		windowPools[windowClass(cap(b.data))].Put(b)
	}
}

// msgPool recycles Message structs across the request/reply hot paths.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns a zeroed pooled Message. Pair with Release once
// the message (and anything aliasing its Body) is no longer referenced.
// Messages built with plain struct literals remain fully supported; the
// pool is an optimization for the hot paths.
func AcquireMessage() *Message {
	return msgPool.Get().(*Message)
}

// Release returns m to the message pool, dropping its reference on the
// read buffer its Body may alias. m must not be used afterwards, and no
// slice reachable from it (Body, context Data) may be read. Calling
// Release on a message that was not acquired from the pool is safe as
// long as the caller owns it exclusively.
func (m *Message) Release() {
	if m == nil {
		return
	}
	b := m.buf
	for i := range m.Contexts {
		m.Contexts[i] = ServiceContext{}
	}
	*m = Message{Contexts: m.Contexts[:0]}
	msgPool.Put(m)
	if b != nil {
		b.unref()
	}
}

// Interner deduplicates the small, highly repetitive strings of the
// request path (object keys, operation names) so steady-state decoding
// does not allocate a fresh string per frame. The map lookup on a []byte
// key compiles to a no-allocation probe. Entries are capped: a peer
// sending unbounded distinct names degrades to plain allocation, never to
// unbounded memory. An Interner is not safe for concurrent use; each
// FrameReader owns one.
type Interner struct {
	m map[string]string
}

const (
	maxInternEntries = 4096
	maxInternLen     = 256
)

// NewInterner returns an empty Interner. Its table comes into being with
// the first string: a reader of replies, which carry none, never has one.
func NewInterner() *Interner { return new(Interner) }

// Intern returns the canonical string for b, remembering it if new.
func (it *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := it.m[string(b)]; ok { // no-alloc lookup
		return s
	}
	s := string(b)
	if len(s) <= maxInternLen && len(it.m) < maxInternEntries {
		if it.m == nil {
			it.m = make(map[string]string, 16)
		}
		it.m[s] = s
	}
	return s
}

// TooBigError reports a request frame whose header-declared body exceeds
// the reader's configured cap. The oversized payload has been drained from
// the stream (bounded reads, never a matching allocation), so the
// connection remains usable: servers reply with a MARSHAL system
// exception instead of closing. Identity fields are populated when the
// request prefix could be parsed.
type TooBigError struct {
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        string
	Operation        string
	Declared         int
	Limit            int
}

func (e *TooBigError) Error() string {
	return fmt.Sprintf("giop: request %s.%s declares %d byte body, limit %d",
		e.ObjectKey, e.Operation, e.Declared, e.Limit)
}

// errWouldBlock signals that completing the next frame needs a read that
// may block; batch assembly stops there rather than stalling parsed work.
var errWouldBlock = errors.New("giop: would block")

// FrameReaderConfig tunes a FrameReader.
type FrameReaderConfig struct {
	// MaxBody caps the header-declared body size of a single message
	// (and of a reassembled fragment train). Zero means MaxMessageSize.
	// Oversized requests surface as *TooBigError after being drained.
	MaxBody int
	// FrameTimeout bounds how long a frame that has started arriving may
	// take to finish (slow-loris guard). Zero disables the guard. The
	// guard never applies to an idle connection waiting at a frame
	// boundary.
	FrameTimeout time.Duration
	// SetReadDeadline arms and clears the transport read deadline for the
	// slow-loris guard (net.Conn.SetReadDeadline). Nil disables the guard.
	SetReadDeadline func(time.Time) error
	// BufSize overrides the read-window size. Zero means 64 KiB.
	BufSize int
}

// FrameReader scans a buffered read window and parses every complete
// frame it holds, so one syscall can yield a whole batch of messages.
// Bodies alias the refcounted window buffer; callers release each message
// (Message.Release) when they are done with it — a server when the
// dispatch completes, a client when the reply is decoded. A message that
// is never released is not a leak: its window is collected with it instead
// of being recycled. A frame larger than the window is read into a pooled
// window grown to fit it, up to cdr.RetainLimit; only beyond that does a
// body get a buffer of its own. A FrameReader is not safe for concurrent
// use.
type FrameReader struct {
	r   io.Reader
	cfg FrameReaderConfig

	buf        *frameBuf
	start, end int
	// size is the window the reader asks for when nothing calls for more.
	size int
	// last is the wire size of the previous frame if it outgrew size, else
	// zero. The read that waits for the next frame makes that much room
	// first, so a stream of equally large frames lands each one whole in a
	// window of its own and no byte moves again.
	last int

	it         *Interner
	guardArmed bool

	err error // sticky fatal error, returned forever after

	reads  uint64 // transport reads issued
	frames uint64 // frames parsed
}

// NewFrameReader wraps r. See FrameReaderConfig for the knobs.
func NewFrameReader(r io.Reader, cfg FrameReaderConfig) *FrameReader {
	if cfg.MaxBody <= 0 || cfg.MaxBody > MaxMessageSize {
		cfg.MaxBody = MaxMessageSize
	}
	size := cfg.BufSize
	if size <= 0 {
		size = defaultFrameBufSize
	}
	return &FrameReader{
		r:    r,
		cfg:  cfg,
		buf:  newFrameBuf(size),
		size: size,
		it:   NewInterner(),
	}
}

// Stats reports cumulative transport reads and parsed frames; their ratio
// is the frames-per-read amortization the reactor achieves.
func (fr *FrameReader) Stats() (reads, frames uint64) { return fr.reads, fr.frames }

func (fr *FrameReader) avail() int { return fr.end - fr.start }

// armGuard starts the slow-loris clock: a frame has started arriving and
// must complete within FrameTimeout.
func (fr *FrameReader) armGuard() {
	if fr.guardArmed || fr.cfg.FrameTimeout <= 0 || fr.cfg.SetReadDeadline == nil {
		return
	}
	fr.cfg.SetReadDeadline(time.Now().Add(fr.cfg.FrameTimeout))
	fr.guardArmed = true
}

// disarmGuard clears the deadline once the window sits at a frame
// boundary again, so idle connections may idle forever.
func (fr *FrameReader) disarmGuard() {
	if !fr.guardArmed {
		return
	}
	fr.cfg.SetReadDeadline(time.Time{})
	fr.guardArmed = false
}

// ensureSpace makes room to buffer need more bytes, swapping to a fresh
// pooled buffer when parsed-out regions are still pinned by undelivered
// messages (the window never rewinds over referenced bytes).
func (fr *FrameReader) ensureSpace(need int) {
	if len(fr.buf.data)-fr.end >= need {
		return
	}
	if fr.start == fr.end && fr.buf.refs.Load() == 1 {
		// Nothing buffered and nobody aliases the buffer: rewind in place,
		// into as much of its capacity as it takes.
		fr.start, fr.end = 0, 0
		if cap(fr.buf.data) >= need {
			fr.buf.data = fr.buf.data[:max(len(fr.buf.data), need)]
			return
		}
	}
	nb := newFrameBuf(max(fr.size, fr.avail()+need))
	copy(nb.data, fr.buf.data[fr.start:fr.end])
	fr.end -= fr.start
	fr.start = 0
	fr.buf.unref()
	fr.buf = nb
}

// fill blocks until at least min bytes are buffered.
func (fr *FrameReader) fill(min int) error {
	fr.ensureSpace(min - fr.avail())
	for fr.avail() < min {
		if fr.avail() > 0 {
			fr.armGuard()
		}
		k, err := fr.r.Read(fr.buf.data[fr.end:])
		if k > 0 {
			fr.reads++
			fr.end += k
		}
		if err != nil {
			if k == 0 {
				return err
			}
			// Deliver what arrived; the error resurfaces on the next read.
		}
	}
	return nil
}

// header validates the 12-byte header at the window start and returns its
// fields. The header is not consumed.
func (fr *FrameReader) header() (typ MsgType, flags byte, n int, err error) {
	h := fr.buf.data[fr.start : fr.start+HeaderSize]
	if [4]byte(h[:4]) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	if h[4] != Version {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, h[4])
	}
	typ = MsgType(h[5])
	if typ > MsgFragment {
		return 0, 0, 0, fmt.Errorf("giop: unknown message type %d", h[5])
	}
	size := binary.LittleEndian.Uint32(h[8:])
	if size > MaxMessageSize {
		return 0, 0, 0, ErrTooBig
	}
	return typ, h[6], int(size), nil
}

// ReadBatch parses frames into dst, blocking only for the first one:
// subsequent slots are filled from bytes already buffered, so the batch
// size tracks what the transport actually delivered per syscall. It
// returns the number of messages stored. Fatal errors are sticky;
// *TooBigError is not fatal (the offending frame was drained) and is
// returned on the call after any already-parsed frames are delivered.
func (fr *FrameReader) ReadBatch(dst []*Message) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if fr.err != nil {
		err := fr.err
		if _, ok := err.(*TooBigError); ok {
			fr.err = nil // drained and reported: the stream is still good
		}
		return 0, err
	}
	n := 0
	for n < len(dst) {
		m, err := fr.next(n == 0)
		if err == errWouldBlock {
			break
		}
		if err != nil {
			if n == 0 {
				if _, ok := err.(*TooBigError); !ok {
					fr.err = err
				}
				return 0, err
			}
			fr.err = err // deliver parsed frames first, error next call
			break
		}
		dst[n] = m
		n++
	}
	if n > 0 {
		// One clock read stamps the whole batch: the admission timestamp
		// queue-wait measurements start from, cheap enough to be
		// unconditional.
		now := time.Now()
		for i := 0; i < n; i++ {
			dst[i].Received = now
		}
	}
	if fr.avail() == 0 {
		fr.disarmGuard()
	}
	return n, nil
}

// next parses one frame. With block false it never issues a transport
// read, returning errWouldBlock when the buffered bytes do not hold a
// complete frame.
func (fr *FrameReader) next(block bool) (*Message, error) {
	if fr.avail() < HeaderSize {
		if !block {
			return nil, errWouldBlock
		}
		if fr.avail() == 0 {
			fr.ensureSpace(fr.last)
		}
		if err := fr.fill(HeaderSize); err != nil {
			if fr.avail() > 0 && (err == io.EOF) {
				return nil, ErrShortHeader
			}
			return nil, err
		}
	}
	typ, flags, n, err := fr.header()
	if err != nil {
		return nil, err
	}
	if typ == MsgFragment {
		return nil, ErrOrphanFragment
	}
	if n > fr.cfg.MaxBody {
		if !block {
			return nil, errWouldBlock
		}
		return nil, fr.drainOversize(typ, flags, n)
	}
	total := HeaderSize + n
	if total > len(fr.buf.data) && total > cdr.RetainLimit {
		// Too big for any window the pools retain: read the body into its
		// own buffer, grown incrementally so a lying header cannot force a
		// giant allocation up front.
		if !block {
			return nil, errWouldBlock
		}
		return fr.readLarge(typ, flags, n)
	}
	if fr.avail() < total {
		if !block {
			return nil, errWouldBlock
		}
		// fill swaps to a window grown to fit when this one is too small.
		if err := fr.fill(total); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.last = 0
	if total > fr.size {
		fr.last = total
	}
	if flags&flagMoreFragments != 0 {
		if !block {
			return nil, errWouldBlock
		}
		body := fr.buf.data[fr.start+HeaderSize : fr.start+total]
		fr.start += total
		fr.frames++
		return fr.assembleFragments(typ, body)
	}
	body := fr.buf.data[fr.start+HeaderSize : fr.start+total]
	fr.start += total
	fr.frames++
	return fr.deliver(typ, body, fr.buf)
}

// deliver decodes body into a pooled message. When the body aliases a
// window buffer, the message takes a reference on it.
func (fr *FrameReader) deliver(typ MsgType, body []byte, buf *frameBuf) (*Message, error) {
	m := AcquireMessage()
	m.Type = typ
	if err := m.decodeBodyIn(body, fr.it); err != nil {
		m.Release()
		return nil, fmt.Errorf("giop: decoding %v: %w", typ, err)
	}
	if buf != nil {
		buf.ref()
		m.buf = buf
	}
	return m, nil
}

// readLarge reads an n-byte body that exceeds every pooled window, growing
// the destination geometrically as bytes actually arrive.
func (fr *FrameReader) readLarge(typ MsgType, flags byte, n int) (*Message, error) {
	body, err := fr.consumeBody(nil, n)
	if err != nil {
		return nil, err
	}
	fr.frames++
	if flags&flagMoreFragments != 0 {
		return fr.assembleFragments(typ, body)
	}
	return fr.deliver(typ, body, nil)
}

// consumeBody consumes the header at the window start plus its n-byte
// body, appending the body to dst. Buffered bytes are drained first; the
// remainder is read directly, bypassing the window, with the allocation
// growing stepwise from 1 MiB so a lying header never forces a giant
// up-front allocation.
func (fr *FrameReader) consumeBody(dst []byte, n int) ([]byte, error) {
	const step = 1 << 20
	want := len(dst) + n
	if cap(dst) < want {
		c := cap(dst)
		if c < step {
			c = step
		}
		if c > want {
			c = want
		}
		nb := make([]byte, len(dst), c)
		copy(nb, dst)
		dst = nb
	}
	fr.start += HeaderSize
	for n > 0 {
		if k := fr.avail(); k > 0 {
			if k > n {
				k = n
			}
			dst = append(dst, fr.buf.data[fr.start:fr.start+k]...)
			fr.start += k
			n -= k
			continue
		}
		if len(dst) == cap(dst) {
			c := 2 * cap(dst)
			if c > len(dst)+n {
				c = len(dst) + n
			}
			nb := make([]byte, len(dst), c)
			copy(nb, dst)
			dst = nb
		}
		fr.armGuard()
		room := cap(dst) - len(dst)
		if room > n {
			room = n
		}
		k, err := fr.r.Read(dst[len(dst) : len(dst)+room])
		if k > 0 {
			fr.reads++
			dst = dst[:len(dst)+k]
			n -= k
		}
		if err != nil && k == 0 {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return dst, nil
}

// assembleFragments reassembles a fragment train whose initial chunk is
// initial (copied: the result owns its memory). The reassembled body is
// bounded by MaxBody.
func (fr *FrameReader) assembleFragments(typ MsgType, initial []byte) (*Message, error) {
	body := append(make([]byte, 0, 2*len(initial)), initial...)
	for {
		if err := fr.fill(HeaderSize); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		ftyp, fflags, n, err := fr.header()
		if err != nil {
			return nil, err
		}
		if ftyp != MsgFragment {
			return nil, fmt.Errorf("giop: expected Fragment continuation, got %v", ftyp)
		}
		if len(body)+n > fr.cfg.MaxBody {
			if len(body)+n > MaxMessageSize {
				return nil, ErrTooBig
			}
			return nil, fr.drainOversizeTrain(typ, body, fflags, n)
		}
		if body, err = fr.consumeBody(body, n); err != nil {
			return nil, err
		}
		fr.frames++
		if fflags&flagMoreFragments == 0 {
			return fr.deliver(typ, body, nil)
		}
	}
}

// drainOversize handles a frame whose declared body exceeds MaxBody: the
// bytes are read and discarded in window-sized chunks (never a matching
// allocation), and for identifiable requests a *TooBigError carries the
// request identity so the server can answer with a MARSHAL exception
// instead of dropping the connection.
func (fr *FrameReader) drainOversize(typ MsgType, flags byte, n int) error {
	if typ != MsgRequest {
		return ErrTooBig // only requests get the courtesy reply
	}
	// Parse the request prefix (contexts + ids + names) out of the first
	// window-load to learn who to blame.
	prefix := len(fr.buf.data) - HeaderSize
	if prefix > n {
		prefix = n
	}
	if err := fr.fill(HeaderSize + prefix); err != nil {
		return err
	}
	m := AcquireMessage()
	terr := &TooBigError{Declared: n, Limit: fr.cfg.MaxBody}
	if m.decodeBodyIn(fr.buf.data[fr.start+HeaderSize:fr.start+HeaderSize+prefix], fr.it) == nil {
		terr.RequestID = m.RequestID
		terr.ResponseExpected = m.ResponseExpected
		terr.ObjectKey = m.ObjectKey
		terr.Operation = m.Operation
	}
	m.Release()
	fr.start += HeaderSize + prefix
	if err := fr.discard(n - prefix); err != nil {
		return err
	}
	if flags&flagMoreFragments != 0 {
		if err := fr.drainFragmentTail(); err != nil {
			return err
		}
	}
	return terr
}

// drainOversizeTrain handles a fragment train that grew past MaxBody
// mid-assembly: the already-assembled prefix identifies the request, the
// rest of the train is discarded.
func (fr *FrameReader) drainOversizeTrain(typ MsgType, body []byte, flags byte, n int) error {
	terr := &TooBigError{Declared: len(body) + n, Limit: fr.cfg.MaxBody}
	if typ == MsgRequest {
		m := AcquireMessage()
		if m.decodeBodyIn(body, fr.it) == nil {
			terr.RequestID = m.RequestID
			terr.ResponseExpected = m.ResponseExpected
			terr.ObjectKey = m.ObjectKey
			terr.Operation = m.Operation
		}
		m.Release()
	}
	fr.start += HeaderSize
	if err := fr.discard(n); err != nil {
		return err
	}
	if flags&flagMoreFragments != 0 {
		if err := fr.drainFragmentTail(); err != nil {
			return err
		}
	}
	if typ != MsgRequest {
		return ErrTooBig
	}
	return terr
}

// drainFragmentTail discards MsgFragment continuations through the end of
// the train.
func (fr *FrameReader) drainFragmentTail() error {
	for {
		if err := fr.fill(HeaderSize); err != nil {
			return err
		}
		ftyp, fflags, n, err := fr.header()
		if err != nil {
			return err
		}
		if ftyp != MsgFragment {
			return fmt.Errorf("giop: expected Fragment continuation, got %v", ftyp)
		}
		fr.start += HeaderSize
		if err := fr.discard(n); err != nil {
			return err
		}
		if fflags&flagMoreFragments == 0 {
			return nil
		}
	}
}

// discard consumes and drops n bytes, reusing the window as scratch.
func (fr *FrameReader) discard(n int) error {
	for n > 0 {
		if k := fr.avail(); k > 0 {
			if k > n {
				k = n
			}
			fr.start += k
			n -= k
			continue
		}
		fr.armGuard()
		fr.ensureSpace(1)
		room := len(fr.buf.data) - fr.end
		if room > n {
			room = n
		}
		k, err := fr.r.Read(fr.buf.data[fr.end : fr.end+room])
		if k > 0 {
			fr.reads++
			fr.end += k
			fr.start = fr.end // consumed immediately
			n -= k
		}
		if err != nil && k == 0 {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Close releases the reader's buffer reference. Outstanding messages keep
// theirs; the buffer is pooled when the last one releases.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		fr.buf.unref()
		fr.buf = nil
	}
}
