// Package giop implements a message protocol modelled on the CORBA General
// Inter-ORB Protocol (GIOP 1.0/1.1): a fixed 12-byte header followed by a
// CDR-encoded message body. The header is the magic "SGOP", the version,
// the message type, a flags octet, one reserved octet and the body size as
// a little-endian uint32 — the byte order of the cdr bodies, which is the
// wire's only one, so no header carries a byte-order flag. Message kinds,
// reply statuses and service contexts follow the GIOP structure closely
// enough that the runtime layers above (ORB, naming, fault tolerance) can
// be written exactly as the paper describes them for omniORB.
//
// Write frames a message with one copy of its Body, into a pooled scratch
// buffer. FrameReader is the reader of both ends of a connection — the
// server's reactor and the client's reply loop: it parses every frame a
// read delivered into pooled Messages whose bodies alias a refcounted,
// pooled read window. Message lifetime is therefore explicit: whoever is
// handed a message calls Release when done with it and with everything
// decoded by aliasing — a server when the dispatch completes, a client
// once the reply is decoded (values decoded with cdr's Get* are copies and
// outlive it). Release is an optimisation, not an obligation: a message
// that is never released, as the ORB's DII requests do with replies they
// may decode again, keeps its window until both are collected.
package giop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/cdr"
)

// Magic is the 4-byte message signature ("SGOP" — simple GIOP — to avoid
// claiming interoperability with real GIOP implementations).
var Magic = [4]byte{'S', 'G', 'O', 'P'}

// Version is the protocol version carried in every header. Version 2 is
// the little-endian wire: a peer built for version 1, whose header size
// and bodies were big-endian, is refused with ErrBadVersion rather than
// misread.
const Version = 2

// MsgType enumerates protocol message kinds (GIOP MsgType analogue).
type MsgType uint8

// Message kinds.
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgError
	// MsgFragment continues the body of the preceding fragmented message
	// on the same connection (GIOP 1.1 Fragment analogue).
	MsgFragment
)

func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgError:
		return "MessageError"
	case MsgFragment:
		return "Fragment"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// ReplyStatus enumerates the outcome field of a Reply message.
type ReplyStatus uint32

// Reply statuses (GIOP ReplyStatusType analogue).
const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
	ReplyLocationForward
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// LocateStatus enumerates the outcome field of a LocateReply message.
type LocateStatus uint32

// Locate statuses.
const (
	LocateUnknownObject LocateStatus = iota
	LocateObjectHere
	LocateObjectForward
)

// MaxMessageSize bounds a single protocol message. Larger declared bodies
// abort the connection rather than exhausting memory.
const MaxMessageSize = 64 << 20

// HeaderSize is the fixed encoded header length in bytes.
const HeaderSize = 12

// Errors surfaced by the message layer.
var (
	ErrBadMagic    = errors.New("giop: bad magic")
	ErrBadVersion  = errors.New("giop: unsupported version")
	ErrTooBig      = errors.New("giop: message exceeds MaxMessageSize")
	ErrShortHeader = errors.New("giop: truncated header")
)

// ServiceContext is an opaque tagged blob piggy-backed on requests and
// replies (GIOP service context analogue). The fault-tolerance and
// virtual-time layers ride in service contexts.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// Well-known service context IDs used by this repository.
const (
	// SCVirtualTime carries a cluster virtual-time stamp (uint64 ticks).
	SCVirtualTime uint32 = 0x56544d45 // "VTME"
	// SCHostName carries the simulated host name of the sender.
	SCHostName uint32 = 0x484f5354 // "HOST"
	// SCDeadline carries the caller's remaining per-call deadline as a
	// uint64 nanosecond count, measured at send time. It is encoded as a
	// *remaining duration* rather than an absolute wall-clock instant so
	// the receiver needs no clock synchronization with the sender: the
	// server rebases the remainder onto its own clock on arrival. Servers
	// shed requests whose deadline has already expired before dispatching
	// them, and propagate the (shrinking) remainder into nested calls via
	// the request context.
	SCDeadline uint32 = 0x444c4e45 // "DLNE"
	// SCTrace carries a distributed-tracing context: 16-byte trace id,
	// 8-byte parent span id and one flag byte (bit 0 = sampled). See
	// internal/obs for the codec. Peers that predate tracing relay the
	// context untouched — unknown service-context IDs are preserved
	// verbatim through encode/decode.
	SCTrace uint32 = 0x54524143 // "TRAC"
	// SCQoS carries the caller's quality-of-service intent on requests:
	// one priority-class byte (0 critical, 1 normal, 2 batch) followed by
	// the tenant id as raw bytes. Absence means normal class, anonymous
	// tenant — so QoS-unaware clients keep their pre-QoS behaviour and
	// QoS-unaware servers relay the context verbatim like any unknown id.
	SCQoS uint32 = 0x514f5331 // "QOS1"
	// SCRetryAfter rides on admission-rejected replies: a uint64
	// nanosecond hint telling the caller how long to wait before
	// reoffering the request. The shed goes back to the caller with the
	// hint, and callers that back off by it (the QoS soak's clients)
	// spread out instead of hammering an overloaded adapter.
	SCRetryAfter uint32 = 0x52545259 // "RTRY"
	// SCCheckpoint makes the servant's state ride the business reply. On
	// a request it is a mark: "send your state back with the answer",
	// naming the state the caller already holds. On the reply it carries
	// the state captured after the operation ran, or a delta against the
	// named one. Package ft owns both payloads; here it is only an id.
	SCCheckpoint uint32 = 0x434b5054 // "CKPT"
)

// EncodeDeadline renders a remaining-duration deadline for SCDeadline.
// Non-positive durations encode as an already-expired deadline (zero).
func EncodeDeadline(remaining time.Duration) []byte {
	if remaining < 0 {
		remaining = 0
	}
	e := cdr.NewEncoder(8)
	e.PutUint64(uint64(remaining))
	return e.Bytes()
}

// DecodeDeadline parses an SCDeadline payload. ok is false when data is
// absent or malformed (callers then treat the request as unbounded).
func DecodeDeadline(data []byte) (remaining time.Duration, ok bool) {
	if len(data) == 0 {
		return 0, false
	}
	d := cdr.NewDecoder(data)
	ns := d.GetUint64()
	if d.Err() != nil || ns > uint64(1<<62) {
		return 0, false
	}
	return time.Duration(ns), true
}

// EncodeQoS renders an SCQoS payload: the priority-class byte followed by
// the tenant id verbatim. The layout is deliberately trivial — one
// allocation, no CDR framing — because it is attached on the client hot
// path of every prioritized call.
func EncodeQoS(class uint8, tenant string) []byte {
	data := make([]byte, 1+len(tenant))
	data[0] = class
	copy(data[1:], tenant)
	return data
}

// DecodeQoS parses an SCQoS payload. ok is false when the context is
// absent; callers then fall back to normal class and anonymous tenant.
// The tenant string aliases nothing — it is copied out of the (pooled)
// frame buffer, since admission bookkeeping outlives the request message.
func DecodeQoS(data []byte) (class uint8, tenant string, ok bool) {
	if len(data) == 0 {
		return 0, "", false
	}
	return data[0], string(data[1:]), true
}

// EncodeRetryAfter renders an SCRetryAfter payload (nanoseconds).
func EncodeRetryAfter(d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	e := cdr.NewEncoder(8)
	e.PutUint64(uint64(d))
	return e.Bytes()
}

// DecodeRetryAfter parses an SCRetryAfter payload. ok is false when data
// is absent or malformed (callers then back off on their own schedule).
func DecodeRetryAfter(data []byte) (d time.Duration, ok bool) {
	if len(data) == 0 {
		return 0, false
	}
	dec := cdr.NewDecoder(data)
	ns := dec.GetUint64()
	if dec.Err() != nil || ns > uint64(1<<62) {
		return 0, false
	}
	return time.Duration(ns), true
}

// Message is a fully parsed protocol message. Exactly the fields relevant
// to its Type are populated.
type Message struct {
	Type MsgType

	// Request / Reply / Locate fields.
	RequestID uint32

	// Request fields.
	ResponseExpected bool
	ObjectKey        string
	Operation        string

	// Reply fields.
	ReplyStatus ReplyStatus

	// LocateReply fields.
	LocateStatus LocateStatus

	// Request and Reply carry service contexts.
	Contexts []ServiceContext

	// Body is the CDR-encoded operation arguments or results.
	Body []byte

	// Received is when the FrameReader delivered this message (one clock
	// read per batch, shared by every message in it). It is the
	// admission stamp the reactor's queue-wait measurement starts from;
	// zero for locally built messages.
	Received time.Time

	// buf is the refcounted read buffer Body aliases when this message
	// was produced by a FrameReader; Release drops the reference.
	buf *frameBuf
}

// Context returns the data of the first service context with the given id,
// or nil if absent.
func (m *Message) Context(id uint32) []byte {
	for _, c := range m.Contexts {
		if c.ID == id {
			return c.Data
		}
	}
	return nil
}

// HasContext reports whether a service context with the given id is
// present, whatever its data — how a mark that may carry no data, such as
// a request's SCCheckpoint, is read.
func (m *Message) HasContext(id uint32) bool {
	for _, c := range m.Contexts {
		if c.ID == id {
			return true
		}
	}
	return false
}

// SetContext replaces or appends the service context with the given id.
func (m *Message) SetContext(id uint32, data []byte) {
	for i := range m.Contexts {
		if m.Contexts[i].ID == id {
			m.Contexts[i].Data = data
			return
		}
	}
	m.Contexts = append(m.Contexts, ServiceContext{ID: id, Data: data})
}

func putContexts(e *cdr.Encoder, ctxs []ServiceContext) {
	e.PutUint32(uint32(len(ctxs)))
	for _, c := range ctxs {
		e.PutUint32(c.ID)
		e.PutBytes(c.Data)
	}
}

// getContexts decodes a service-context list. IDs are opaque here:
// unknown contexts are preserved verbatim so they survive a round trip
// through a peer that does not understand them (forward compatibility
// for SCTrace and future contexts). A count beyond the sanity bound is a
// hard decode error — silently dropping the list would leave the decoder
// misaligned and corrupt every field after it.
func getContexts(d *cdr.Decoder) ([]ServiceContext, error) {
	return getContextsIn(d, nil)
}

// getContextsIn is getContexts appending into dst (retained capacity from
// a pooled Message), so steady-state decode does not allocate the list.
func getContextsIn(d *cdr.Decoder, dst []ServiceContext) ([]ServiceContext, error) {
	n := d.GetUint32()
	if n > 1024 { // sanity bound; contexts are small and few
		return nil, fmt.Errorf("giop: service context count %d exceeds limit", n)
	}
	if n == 0 {
		return dst, d.Err()
	}
	if dst == nil {
		dst = make([]ServiceContext, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		id := d.GetUint32()
		data := d.GetBytes()
		if err := d.Err(); err != nil {
			return dst, err
		}
		dst = append(dst, ServiceContext{ID: id, Data: data})
	}
	return dst, nil
}

// encodePrefix renders into e everything of m's wire body that precedes
// m.Body: service contexts, ids and names and, for the kinds that carry a
// Body, the padding that starts it on an 8-byte boundary, so that it can
// be decoded as an independent CDR stream. It reports whether the kind
// carries a Body at all. The Body itself never passes through e: Write
// copies it straight from the caller's bytes into the frame.
func (m *Message) encodePrefix(e *cdr.Encoder) (hasBody bool) {
	switch m.Type {
	case MsgRequest:
		putContexts(e, m.Contexts)
		e.PutUint32(m.RequestID)
		e.PutBool(m.ResponseExpected)
		e.PutString(m.ObjectKey)
		e.PutString(m.Operation)
	case MsgReply:
		putContexts(e, m.Contexts)
		e.PutUint32(m.RequestID)
		e.PutUint32(uint32(m.ReplyStatus))
	case MsgCancelRequest:
		e.PutUint32(m.RequestID)
		return false
	case MsgLocateRequest:
		e.PutUint32(m.RequestID)
		e.PutString(m.ObjectKey)
		return false
	case MsgLocateReply:
		e.PutUint32(m.RequestID)
		e.PutUint32(uint32(m.LocateStatus))
	default: // MsgCloseConnection, MsgError: no body
		return false
	}
	e.Align(8)
	return true
}

// getString reads a string, interning it when it is non-nil so the
// request hot path reuses one canonical string per object key/operation
// instead of allocating a fresh copy per frame.
func getString(d *cdr.Decoder, it *Interner) string {
	if it == nil {
		return d.GetString()
	}
	return it.Intern(d.GetStringBytes())
}

// decodeBodyIn parses the type-specific portion into m, interning
// strings through it when it is non-nil; pooled messages additionally
// reuse their retained Contexts capacity.
func (m *Message) decodeBodyIn(data []byte, it *Interner) error {
	d := cdr.AcquireDecoder(data)
	defer d.Release()
	consumeBody := func() {
		// Skip alignment padding; the remainder is the operation body. The
		// body aliases the read buffer rather than copying it — safe
		// because the buffer is either never reused (Read) or refcounted
		// until every message aliasing it is released (FrameReader).
		off := len(data) - d.Remaining()
		pad := (8 - off%8) % 8
		if d.Remaining() >= pad {
			m.Body = data[off+pad:]
		}
	}
	switch m.Type {
	case MsgRequest:
		var err error
		if m.Contexts, err = getContextsIn(d, m.Contexts); err != nil {
			return err
		}
		m.RequestID = d.GetUint32()
		m.ResponseExpected = d.GetBool()
		m.ObjectKey = getString(d, it)
		m.Operation = getString(d, it)
		if err := d.Err(); err != nil {
			return err
		}
		consumeBody()
	case MsgReply:
		var err error
		if m.Contexts, err = getContextsIn(d, m.Contexts); err != nil {
			return err
		}
		m.RequestID = d.GetUint32()
		m.ReplyStatus = ReplyStatus(d.GetUint32())
		if err := d.Err(); err != nil {
			return err
		}
		consumeBody()
	case MsgCancelRequest:
		m.RequestID = d.GetUint32()
	case MsgLocateRequest:
		m.RequestID = d.GetUint32()
		m.ObjectKey = getString(d, it)
	case MsgLocateReply:
		m.RequestID = d.GetUint32()
		m.LocateStatus = LocateStatus(d.GetUint32())
		if err := d.Err(); err != nil {
			return err
		}
		consumeBody()
	case MsgCloseConnection, MsgError:
		// no body
	}
	return d.Err()
}

// flagMoreFragments in the header flags byte marks a message whose body
// continues in subsequent MsgFragment messages on the same stream.
const flagMoreFragments = 0x01

// FragmentSize is the body size above which Write splits a message into
// an initial fragment plus MsgFragment continuations. Large solver states
// and checkpoints thus never require a single huge buffer on the wire.
// It is a variable so tests can exercise fragmentation with small bodies.
var FragmentSize = 4 << 20

// writeBufPool recycles the scratch in which writeOne assembles a frame.
// Scratch above cdr.RetainLimit is dropped on release, like every other
// buffer of the data path.
var writeBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// writeOne emits one raw protocol message whose body is prefix followed by
// body, as a single w.Write: header, prefix and body are assembled once in
// a pooled scratch buffer, which is the only copy this layer makes of the
// body (w copies the bytes synchronously, so the scratch is safe to
// recycle on return).
func writeOne(w io.Writer, typ MsgType, flags byte, prefix, body []byte) error {
	bp := writeBufPool.Get().(*[]byte)
	n := len(prefix) + len(body)
	buf := slices.Grow((*bp)[:0], HeaderSize+n)
	buf = append(buf, Magic[:]...)
	buf = append(buf, Version, byte(typ), flags, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, prefix...)
	buf = append(buf, body...)
	_, err := w.Write(buf)
	if cap(buf) <= cdr.RetainLimit {
		*bp = buf[:0]
		writeBufPool.Put(bp)
	}
	return err
}

// Write encodes m to w, fragmenting wire bodies larger than FragmentSize.
// Only what precedes m.Body goes through an encoder; m.Body is copied once,
// from where the caller left it into the frame. Callers multiplexing a
// connection must serialize whole Write calls (a fragment train may not
// interleave with other messages).
func Write(w io.Writer, m *Message) error {
	e := cdr.AcquireEncoder()
	defer e.Release()
	var body []byte
	if m.encodePrefix(e) {
		body = m.Body
	}
	prefix := e.Bytes()
	if len(prefix)+len(body) > MaxMessageSize {
		return ErrTooBig
	}
	frag := max(FragmentSize, HeaderSize)
	// Each frame takes the next frag bytes of prefix‖body; all but the
	// first are MsgFragment continuations.
	for typ := m.Type; ; typ = MsgFragment {
		p := prefix[:min(frag, len(prefix))]
		b := body[:min(frag-len(p), len(body))]
		prefix, body = prefix[len(p):], body[len(b):]
		flags := byte(0)
		if len(prefix)+len(body) > 0 {
			flags = flagMoreFragments
		}
		if err := writeOne(w, typ, flags, p, b); err != nil || flags == 0 {
			return err
		}
	}
}

// ErrOrphanFragment is reported when a MsgFragment arrives without a
// preceding fragmented message.
var ErrOrphanFragment = errors.New("giop: fragment without initial message")
