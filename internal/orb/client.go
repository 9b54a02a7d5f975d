package orb

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/obs"
)

// clientConn is a multiplexed client-side connection: many in-flight
// requests share one TCP stream, matched to replies by request id.
type clientConn struct {
	orb  *ORB
	addr string
	conn net.Conn

	writeMu sync.Mutex
	bw      *bufio.Writer

	mu      sync.Mutex
	pending map[uint32]chan *giop.Message
	err     error // set once the connection is dead
}

// getConn returns the pooled connection for addr, dialing if necessary.
// Concurrent callers for an un-pooled address coalesce onto a single
// in-flight dial (per-address singleflight) instead of racing duplicate
// connections and discarding the losers.
func (o *ORB) getConn(addr string) (*clientConn, error) {
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		return nil, CommFailure("orb is shut down")
	}
	if c := o.pooledConn(addr); c != nil {
		o.mu.Unlock()
		return c, nil
	}
	if w, ok := o.dials[addr]; ok {
		o.mu.Unlock()
		o.counters.dialsCoalesced.Add(1)
		<-w.done
		return w.conn, w.err
	}
	w := &dialWait{done: make(chan struct{})}
	o.dials[addr] = w
	o.mu.Unlock()

	c, err := o.dialConn(addr)

	o.mu.Lock()
	delete(o.dials, addr)
	if err == nil {
		if o.shutdown {
			err = CommFailure("orb is shut down")
			c.conn.Close()
			c = nil
		} else {
			o.conns[addr] = c
		}
	}
	o.mu.Unlock()

	w.conn, w.err = c, err
	close(w.done)
	if err != nil {
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// pooledConn returns the pooled connection for addr, or nil. A connection
// whose death is already recorded is dropped instead of returned: close
// records the death before it removes the connection from the pool, and a
// caller handed it in between would fail at once with the stale cause.
// Callers hold o.mu.
func (o *ORB) pooledConn(addr string) *clientConn {
	c := o.conns[addr]
	if c != nil && c.deadErr() != nil {
		delete(o.conns, addr)
		return nil
	}
	return c
}

// dialConn establishes one outbound connection (no pooling).
func (o *ORB) dialConn(addr string) (*clientConn, error) {
	dctx, dcancel := context.WithTimeout(context.Background(), o.opts.DialTimeout)
	nc, err := o.opts.Dialer.DialContext(dctx, "tcp", addr)
	dcancel()
	if err != nil {
		return nil, CommFailure(fmt.Sprintf("dial %s: %v", addr, err))
	}
	o.counters.connectionsDialed.Add(1)
	return &clientConn{
		orb:     o,
		addr:    addr,
		conn:    nc,
		bw:      bufio.NewWriter(nc),
		pending: make(map[uint32]chan *giop.Message),
	}, nil
}

// Prewarm establishes connections to addrs ahead of first use, so a
// subsequent fan-out finds warm connections instead of serialising behind
// dials. Managers call it with a resolver's offer set (the worker
// addresses they are about to spread calls over). Already-pooled
// addresses are skipped; dial failures are ignored (the call path simply
// dials later). It returns the number of connections actually
// established.
func (o *ORB) Prewarm(ctx context.Context, addrs ...string) int {
	var wg sync.WaitGroup
	warmed := make([]bool, len(addrs))
	for i, addr := range addrs {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		o.mu.Lock()
		pooled := o.pooledConn(addr) != nil
		o.mu.Unlock()
		if pooled || addr == "" {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			if _, err := o.getConn(addr); err == nil {
				warmed[i] = true
			}
		}(i, addr)
	}
	wg.Wait()
	n := 0
	for _, ok := range warmed {
		if ok {
			n++
		}
	}
	o.counters.connectionsPrewarmed.Add(uint64(n))
	return n
}

// replyWindow is the read window a client connection starts with — what
// the bufio.Reader it replaces had. Most replies are small and a process
// may hold many outbound connections, so the window is a reply's size, not
// the reactor's 64 KiB: eight idle connections at 64 KiB each are enough
// live heap to make a 4 MB process collect a fifth more often. Bulk
// replies grow it (FrameReader reads a larger frame into a pooled window
// that fits, and expects the next one to be as large).
const replyWindow = 4 << 10

// readLoop dispatches replies to waiting callers until the stream dies. It
// reads through the same FrameReader as the server's reactor: replies
// alias pooled read windows, and whoever ends up holding one releases it —
// the caller it was handed to once it has decoded it, the loop itself when
// nobody waits for it any more.
func (c *clientConn) readLoop() {
	fr := giop.NewFrameReader(c.conn, giop.FrameReaderConfig{BufSize: replyWindow})
	defer fr.Close()
	batch := make([]*giop.Message, readBatch)
	for {
		n, err := fr.ReadBatch(batch)
		for i, m := range batch[:n] {
			if cause := c.handleMessage(m); cause != "" {
				for _, rest := range batch[i+1 : n] {
					rest.Release()
				}
				c.close(CommFailure(cause))
				return
			}
		}
		if err != nil {
			c.close(CommFailure(fmt.Sprintf("read from %s: %v", c.addr, err)))
			return
		}
	}
}

// handleMessage routes one inbound message, taking ownership of it. A
// non-empty return is why the connection must be abandoned.
func (c *clientConn) handleMessage(m *giop.Message) (fatal string) {
	switch m.Type {
	case giop.MsgReply, giop.MsgLocateReply:
		c.mu.Lock()
		ch := c.pending[m.RequestID]
		delete(c.pending, m.RequestID)
		c.mu.Unlock()
		if ch != nil {
			c.orb.counters.repliesReceived.Add(1)
			ch <- m
			return ""
		}
		// Abandoned by a cancelled call, or never asked for.
	case giop.MsgCloseConnection:
		fatal = fmt.Sprintf("%s closed connection", c.addr)
	case giop.MsgError:
		fatal = fmt.Sprintf("%s reported protocol error", c.addr)
	default:
		// Clients ignore other message kinds.
	}
	m.Release()
	return fatal
}

// close marks the connection dead, fails all pending calls with cause and
// removes it from the ORB's pool.
func (c *clientConn) close(cause error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = cause
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()

	c.conn.Close()
	c.orb.dropConn(c)
	for id, ch := range pending {
		_ = id
		// Non-blocking: each waiter has a 1-buffered channel.
		select {
		case ch <- nil:
		default:
		}
	}
}

// replyChanPool recycles the 1-buffered reply channels used to hand a
// reply from the read loop to the waiting caller. A channel is recycled
// only after its caller has received from it: exactly one sender can ever
// claim a pending entry (the map entry is removed under mu before the
// send), so once the receive completes the channel is empty and unshared.
// A channel abandoned while its entry was still pending is never recycled:
// nobody will send on it, and nobody proves that by receiving.
var replyChanPool = sync.Pool{New: func() any { return make(chan *giop.Message, 1) }}

// register adds a reply channel for a request id. It fails if the
// connection is already dead.
func (c *clientConn) register(id uint32) (chan *giop.Message, error) {
	ch := replyChanPool.Get().(chan *giop.Message)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		replyChanPool.Put(ch)
		return nil, c.err
	}
	c.pending[id] = ch
	return ch, nil
}

// unregister abandons a pending request (cancellation/timeout path). It
// reports whether the entry was still there; if not, the read loop or
// close has claimed it and is about to send on its channel.
func (c *clientConn) unregister(id uint32) bool {
	c.mu.Lock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return ok
}

// deadErr returns the recorded death cause, if any.
func (c *clientConn) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// send writes one message and flushes it under the write lock. The bytes
// are copied into the buffer synchronously, so callers may release pooled
// encoders backing m.Body as soon as send returns.
func (c *clientConn) send(m *giop.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.deadErr(); err != nil {
		return err
	}
	if err := giop.Write(c.bw, m); err != nil {
		c.close(CommFailure(fmt.Sprintf("write to %s: %v", c.addr, err)))
		return c.deadErr()
	}
	if err := c.bw.Flush(); err != nil {
		c.close(CommFailure(fmt.Sprintf("flush to %s: %v", c.addr, err)))
		return c.deadErr()
	}
	if m.Type == giop.MsgRequest {
		c.orb.counters.requestsSent.Add(1)
	}
	return nil
}

// abandonError maps a context's termination cause to the system exception
// surfaced to the caller.
func abandonError(ctx context.Context, m *giop.Message) error {
	kind := ExCancelled
	if ctx.Err() == context.DeadlineExceeded {
		kind = ExTimeout
	}
	return &SystemException{Kind: kind, Detail: fmt.Sprintf("%s.%s: %v", m.ObjectKey, m.Operation, ctx.Err())}
}

// roundTrip sends a request and waits for its reply, honoring ctx: when the
// context is cancelled or its deadline passes before the reply arrives, the
// pending entry is abandoned and a MsgCancelRequest is sent so the server
// can abort the dispatch. Requests with a context deadline carry the
// remaining time in the SCDeadline service context.
func (c *clientConn) roundTrip(ctx context.Context, m *giop.Message) (*giop.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, abandonError(ctx, m)
	}
	if dl, ok := ctx.Deadline(); ok && m.Type == giop.MsgRequest {
		m.SetContext(giop.SCDeadline, giop.EncodeDeadline(time.Until(dl)))
	}
	ch, err := c.register(m.RequestID)
	if err != nil {
		return nil, err
	}
	if err := c.send(m); err != nil {
		c.unregister(m.RequestID)
		return nil, err
	}
	select {
	case reply := <-ch:
		// The single possible send has completed, so the drained channel
		// can go back to the pool.
		replyChanPool.Put(ch)
		if reply == nil {
			err := c.deadErr()
			if err == nil {
				err = CommFailure("connection closed")
			}
			return nil, err
		}
		return reply, nil
	case <-ctx.Done():
		if !c.unregister(m.RequestID) {
			// The reply overtook the cancellation: take it off the read
			// loop's hands so its window and the channel are recycled.
			(<-ch).Release()
			replyChanPool.Put(ch)
		}
		// Tell the server to abort the dispatch; best-effort (the reply,
		// if any, is released by the read loop since we unregistered).
		_ = c.send(&giop.Message{Type: giop.MsgCancelRequest, RequestID: m.RequestID})
		c.orb.counters.cancelsSent.Add(1)
		return nil, abandonError(ctx, m)
	}
}

// callContext derives the per-call context: the tighter of ctx's own
// deadline, opts.Deadline and the ORB's default CallTimeout.
func (o *ORB) callContext(ctx context.Context, opts CallOptions) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := opts.Deadline
	if timeout <= 0 {
		timeout = o.opts.CallTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// invokeOnce is the single-attempt core under Call/CallOpts: one wire
// round trip, reply decoded, no retries or forward-following. writeArgs
// fills the request body, readReply (which may be nil for void results)
// consumes the reply body. The call is bounded by ctx and the ORB's
// default CallTimeout; cancelling ctx abandons the reply and sends a
// wire-level cancel. Transport failures surface as COMM_FAILURE; servant
// exceptions surface as *UserException or *SystemException.
func (o *ORB) invokeOnce(ctx context.Context, ref ObjectRef, op string, writeArgs func(*cdr.Encoder), readReply func(*cdr.Decoder) error, opts CallOptions) error {
	if ref.IsNil() {
		return &SystemException{Kind: ExObjectNotExist, Detail: "nil object reference"}
	}
	reply, err := o.invokeRaw(ctx, ref, op, writeArgs, opts)
	if err != nil {
		return err
	}
	if rc := opts.ReplyContext; rc != nil {
		// Context data is a copy made at decode time, so it outlives the
		// pooled reply released below.
		rc.Data = reply.Context(rc.ID)
	}
	err = decodeReply(reply, readReply)
	reply.Release()
	return err
}

// invokeRaw performs the wire round trip and returns the raw reply
// (which the caller releases once decoded). The request message and its
// body ride pooled storage released before return — safe because send
// copies the bytes into the connection buffer synchronously and all
// interceptors have run by then.
func (o *ORB) invokeRaw(ctx context.Context, ref ObjectRef, op string, writeArgs func(*cdr.Encoder), opts CallOptions) (*giop.Message, error) {
	fl := o.flight.Load()
	var start time.Time
	if fl != nil {
		start = time.Now()
	}
	m, enc := o.buildRequest(ref, op, writeArgs)
	// QoS coordinates ride the SCQoS service context. Default traffic
	// (normal class, no tenant) sends none — byte-identical to a pre-QoS
	// client, and the attach cost is only paid by calls that opted in.
	if opts.Priority != ClassNormal || opts.Tenant != "" {
		m.SetContext(giop.SCQoS, giop.EncodeQoS(uint8(opts.Priority), opts.Tenant))
	}
	if rc := opts.RequestContext; rc.ID != 0 {
		m.SetContext(rc.ID, rc.Data)
	}
	ctx = o.callRequestSent(ctx, m)
	reply, err := o.transferRequest(ctx, ref, m, opts)
	if err != nil {
		o.callReplyReceived(ctx, m, nil, err)
		o.recordClientCall(fl, m, ref.Addr, start, obs.OutcomeTransportError)
		enc.Release()
		m.Release()
		return nil, err
	}
	o.callReplyReceived(ctx, m, reply, nil)
	o.recordClientCall(fl, m, ref.Addr, start, replyOutcome(reply.ReplyStatus))
	enc.Release()
	m.Release()
	return reply, nil
}

// recordClientCall appends one client-side flight record for a finished
// outbound call. fl is the recorder loaded at call start (nil-safe).
// Client records have no queue-wait; Service is the full round trip as the
// caller experienced it. The trace id is copied only from sampled calls —
// unsampled ones carry the process-constant placeholder context, which
// would link every record to the same meaningless trace.
func (o *ORB) recordClientCall(fl *obs.FlightRecorder, m *giop.Message, peer string, start time.Time, outcome obs.Outcome) {
	if fl == nil {
		return
	}
	rec := obs.FlightRecord{
		Time:    time.Now().UnixNano(),
		Op:      m.Operation,
		Peer:    peer,
		Side:    obs.SideClient,
		Bytes:   int32(len(m.Body)),
		Service: int64(time.Since(start)),
		Outcome: outcome,
	}
	if tc, ok := obs.DecodeTraceContext(m.Context(giop.SCTrace)); ok && tc.Sampled {
		rec.Trace = tc.TraceID
	}
	fl.Record(rec)
}

// buildRequest assembles an un-intercepted request message. The message
// is pooled (callers that complete synchronously release it; the DII path
// retains its message and simply never recycles it). The returned encoder
// (nil when writeArgs is nil) backs m.Body; the caller must Release it
// once the message has been handed to send and all observers of m.Body
// have run.
func (o *ORB) buildRequest(ref ObjectRef, op string, writeArgs func(*cdr.Encoder)) (*giop.Message, *cdr.Encoder) {
	m := giop.AcquireMessage()
	m.Type = giop.MsgRequest
	m.RequestID = o.nextRequestID()
	m.ResponseExpected = true
	m.ObjectKey = ref.Key
	m.Operation = op
	var e *cdr.Encoder
	if writeArgs != nil {
		e = cdr.AcquireEncoder()
		writeArgs(e)
		m.Body = e.Bytes()
	}
	return m, e
}

// transferRequest sends an already-intercepted request and returns the
// raw, un-intercepted reply. Interception is split from transfer so that
// DII requests can run both interception points synchronously in the
// caller's goroutine — send interceptors at Send time, receive
// interceptors at GetResponse time — keeping interceptor state (e.g.
// virtual-time stamps and merges) causally tied to when the caller issues
// and consumes the call, independent of goroutine scheduling.
func (o *ORB) transferRequest(ctx context.Context, ref ObjectRef, m *giop.Message, opts CallOptions) (*giop.Message, error) {
	c, err := o.getConn(ref.Addr)
	if err != nil {
		return nil, err
	}
	cctx, cancel := o.callContext(ctx, opts)
	defer cancel()
	return c.roundTrip(cctx, m)
}

// Notify performs a oneway invocation (IDL "oneway" semantics): the
// request is written with ResponseExpected=false and the call returns as
// soon as it is on the wire. Delivery is best-effort; servant errors are
// not reported. A ctx deadline is still propagated so the server can shed
// the request if it arrives expired.
func (o *ORB) Notify(ctx context.Context, ref ObjectRef, op string, writeArgs func(*cdr.Encoder)) error {
	if ref.IsNil() {
		return &SystemException{Kind: ExObjectNotExist, Detail: "nil object reference"}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fl := o.flight.Load()
	var start time.Time
	if fl != nil {
		start = time.Now()
	}
	m, enc := o.buildRequest(ref, op, writeArgs)
	m.ResponseExpected = false
	ctx = o.callRequestSent(ctx, m)
	err := o.notifyTransfer(ctx, ref, m)
	// Oneways have no reply; completion for the call interceptors is the
	// moment the request is on the wire (or failed to get there).
	o.callReplyReceived(ctx, m, nil, err)
	if err != nil {
		o.recordClientCall(fl, m, ref.Addr, start, obs.OutcomeTransportError)
	} else {
		o.recordClientCall(fl, m, ref.Addr, start, obs.OutcomeOneway)
	}
	enc.Release()
	m.Release()
	return err
}

// notifyTransfer puts an already-intercepted oneway request on the wire.
func (o *ORB) notifyTransfer(ctx context.Context, ref ObjectRef, m *giop.Message) error {
	if err := ctx.Err(); err != nil {
		return abandonError(ctx, m)
	}
	if dl, ok := ctx.Deadline(); ok {
		m.SetContext(giop.SCDeadline, giop.EncodeDeadline(time.Until(dl)))
	}
	c, err := o.getConn(ref.Addr)
	if err != nil {
		return err
	}
	return c.send(m)
}

// decodeReply maps a reply message to the caller's result or error. The
// reply body is walked with a pooled decoder; decoded values are copies,
// so nothing aliases the pool after return.
func decodeReply(reply *giop.Message, readReply func(*cdr.Decoder) error) error {
	switch reply.ReplyStatus {
	case giop.ReplyNoException:
		if readReply == nil {
			return nil
		}
		d := cdr.AcquireDecoder(reply.Body)
		err := readReply(d)
		if err == nil {
			err = d.Err()
		}
		d.Release()
		return err
	case giop.ReplyUserException:
		ue := new(UserException)
		d := cdr.AcquireDecoder(reply.Body)
		err := ue.UnmarshalCDR(d)
		d.Release()
		if err != nil {
			return &SystemException{Kind: ExMarshal, Detail: "undecodable user exception"}
		}
		return ue
	case giop.ReplySystemException:
		se := new(SystemException)
		d := cdr.AcquireDecoder(reply.Body)
		err := se.UnmarshalCDR(d)
		d.Release()
		if err != nil {
			return &SystemException{Kind: ExMarshal, Detail: "undecodable system exception"}
		}
		// An admission shed carries the server's backoff hint in a reply
		// service context; surface it on the exception for the caller.
		if ra, ok := giop.DecodeRetryAfter(reply.Context(giop.SCRetryAfter)); ok {
			se.RetryAfter = ra
		}
		return se
	case giop.ReplyLocationForward:
		var fwd ObjectRef
		d := cdr.AcquireDecoder(reply.Body)
		err := fwd.UnmarshalCDR(d)
		d.Release()
		if err != nil {
			return &SystemException{Kind: ExMarshal, Detail: "undecodable forward reference"}
		}
		return &ForwardError{Target: fwd}
	default:
		return &SystemException{Kind: ExInternal, Detail: fmt.Sprintf("bad reply status %v", reply.ReplyStatus)}
	}
}

// ForwardError reports a LOCATION_FORWARD reply; callers reissue the
// request against Target.
type ForwardError struct {
	Target ObjectRef
}

func (e *ForwardError) Error() string {
	return fmt.Sprintf("orb: location forward to %v", e.Target)
}

// Locate asks the adapter at ref.Addr whether it hosts ref.Key (GIOP
// LocateRequest analogue).
func (o *ORB) Locate(ctx context.Context, ref ObjectRef) (bool, error) {
	c, err := o.getConn(ref.Addr)
	if err != nil {
		return false, err
	}
	m := &giop.Message{
		Type:      giop.MsgLocateRequest,
		RequestID: o.nextRequestID(),
		ObjectKey: ref.Key,
	}
	cctx, cancel := o.callContext(ctx, CallOptions{})
	defer cancel()
	reply, err := c.roundTrip(cctx, m)
	if err != nil {
		return false, err
	}
	here := reply.LocateStatus == giop.LocateObjectHere
	reply.Release()
	return here, nil
}

// OpIsA is the reserved type-check operation every adapter answers on
// behalf of its servants (CORBA Object::_is_a analogue).
const OpIsA = "_is_a"

// IsA asks the servant at ref whether it implements typeID. Unlike the
// TypeID recorded inside the reference (which may be stale after a
// rebind), this asks the live object.
func (o *ORB) IsA(ctx context.Context, ref ObjectRef, typeID string) (bool, error) {
	var ok bool
	err := o.Call(ctx, ref, OpIsA,
		func(e *cdr.Encoder) { e.PutString(typeID) },
		func(d *cdr.Decoder) error { ok = d.GetBool(); return d.Err() })
	return ok, err
}

// Ping performs a connectivity probe against ref ("_non_existent"
// analogue): it returns nil when the servant is reachable and dispatchable.
func (o *ORB) Ping(ctx context.Context, ref ObjectRef) error {
	ok, err := o.Locate(ctx, ref)
	if err != nil {
		return err
	}
	if !ok {
		return ObjectNotExist(ref.Key)
	}
	return nil
}
