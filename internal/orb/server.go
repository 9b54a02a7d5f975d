package orb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/obs"
)

// Servant is the server-side implementation contract (the skeleton
// dispatch analogue). Invoke decodes op's arguments from in and writes
// results to out. Returning a *UserException sends a USER_EXCEPTION reply;
// any other non-nil error sends a SYSTEM_EXCEPTION reply.
type Servant interface {
	// TypeID returns the repository id of the servant's interface.
	TypeID() string
	// Invoke dispatches one operation.
	Invoke(ctx *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error
}

// ServerContext carries per-request server-side information to servants
// and gives them access to the request's service contexts. It is scratch
// owned by the dispatch machinery: servants must not retain it (or the
// Request message it points at) past Invoke.
type ServerContext struct {
	// ORB is the hosting broker.
	ORB *ORB
	// Adapter is the dispatching object adapter.
	Adapter *Adapter
	// Peer is the remote address of the calling connection.
	Peer string
	// Priority is the request's QoS class, decoded from the SCQoS service
	// context at admission (ClassNormal when the caller sent none).
	Priority Priority
	// Tenant is the caller's tenant id from SCQoS (empty when absent).
	Tenant string
	// Request is the raw request message (service contexts readable).
	Request *giop.Message
	// ctx is the request's cancellation context (see Context).
	ctx context.Context
	// replyContexts accumulates service contexts for the reply.
	replyContexts []giop.ServiceContext
}

// Context returns the request's context. It is cancelled when the client
// sends a MsgCancelRequest for this call, when the calling connection
// dies, when the adapter shuts down, or when the deadline propagated in
// the SCDeadline service context expires. Long-running servants should
// check ctx.Done() in their iteration loops and abort early.
func (c *ServerContext) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// AddReplyContext attaches a service context to the outgoing reply.
func (c *ServerContext) AddReplyContext(id uint32, data []byte) {
	c.replyContexts = append(c.replyContexts, giop.ServiceContext{ID: id, Data: data})
}

// Adapter is an object adapter (POA analogue): a TCP listener plus a table
// of active servants keyed by object key. Dispatch concurrency comes from
// the ORB's shared worker pool, not from per-adapter goroutines.
type Adapter struct {
	orb  *ORB
	ln   net.Listener
	pool *workerPool

	mu       sync.RWMutex
	servants map[string]Servant
	closed   bool

	connMu sync.Mutex
	conns  map[*serverConn]struct{}

	wg     sync.WaitGroup // accept loop + connection read loops
	taskWG sync.WaitGroup // admitted requests not yet finished by a worker
}

// serverConn is one inbound connection: its buffered writer and the
// cancellation state of its in-flight requests.
type serverConn struct {
	a    *Adapter
	conn net.Conn
	peer string

	writeMu sync.Mutex
	bw      *bufio.Writer
	dead    bool // a write or flush failed; drop further output

	// mu guards inflight: request id -> cancel func for every cancellable
	// request currently queued or dispatching on this connection.
	// MsgCancelRequest and connection death cancel through it.
	mu       sync.Mutex
	inflight map[uint32]context.CancelFunc
}

// addInflight registers the cancel func for a request id.
func (c *serverConn) addInflight(id uint32, cancel context.CancelFunc) {
	c.mu.Lock()
	c.inflight[id] = cancel
	c.mu.Unlock()
}

// removeInflight drops a finished request.
func (c *serverConn) removeInflight(id uint32) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// cancelInflight cancels the request with the given id, reporting whether
// it was in flight.
func (c *serverConn) cancelInflight(id uint32) bool {
	c.mu.Lock()
	cancel, ok := c.inflight[id]
	c.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

// write sends one message and flushes it: every reply, shed, locate
// reply and protocol error leaves the connection through here.
func (c *serverConn) write(m *giop.Message) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.dead {
		return
	}
	if err := giop.Write(c.bw, m); err != nil {
		c.dead = true
		return
	}
	if err := c.bw.Flush(); err != nil {
		c.dead = true
	}
}

// shutdown sends a CloseConnection notice (best effort, bounded by a
// write deadline) and closes the socket.
func (c *serverConn) shutdown() {
	c.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	c.write(&giop.Message{Type: giop.MsgCloseConnection})
	c.conn.Close()
}

// NewAdapter creates an object adapter listening on addr (use
// "127.0.0.1:0" for an ephemeral port).
func (o *ORB) NewAdapter(addr string) (*Adapter, error) {
	pool, err := o.ensurePool()
	if err != nil {
		return nil, err
	}
	ln, err := o.opts.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb: adapter listen %s: %w", addr, err)
	}
	a := &Adapter{
		orb:      o,
		ln:       ln,
		pool:     pool,
		servants: make(map[string]Servant),
		conns:    make(map[*serverConn]struct{}),
	}
	o.mu.Lock()
	o.adapters = append(o.adapters, a)
	o.mu.Unlock()
	a.wg.Add(1)
	go a.acceptLoop()
	return a, nil
}

// Addr returns the adapter's bound listen address ("host:port").
func (a *Adapter) Addr() string { return a.ln.Addr().String() }

// Activate registers servant under key and returns its object reference
// (POA activate_object_with_id analogue). Activating an existing key
// replaces the previous servant.
func (a *Adapter) Activate(key string, s Servant) ObjectRef {
	a.mu.Lock()
	a.servants[key] = s
	a.mu.Unlock()
	return ObjectRef{TypeID: s.TypeID(), Addr: a.Addr(), Key: key}
}

// Deactivate removes the servant under key. Subsequent requests for it
// raise OBJECT_NOT_EXIST.
func (a *Adapter) Deactivate(key string) {
	a.mu.Lock()
	delete(a.servants, key)
	a.mu.Unlock()
}

// Resolve returns the servant registered under key, if any.
func (a *Adapter) Resolve(key string) (Servant, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s, ok := a.servants[key]
	return s, ok
}

// Close stops the listener, notifies connected clients with a GIOP
// CloseConnection message, closes all server-side connections and waits
// for in-flight dispatches. Clients observe COMM_FAILURE on their next
// call.
func (a *Adapter) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	a.ln.Close()
	a.connMu.Lock()
	conns := make([]*serverConn, 0, len(a.conns))
	for c := range a.conns {
		conns = append(conns, c)
	}
	a.connMu.Unlock()
	for _, c := range conns {
		c.shutdown()
	}
	a.orb.removeAdapter(a)
	a.wg.Wait()
	// The read loops are gone; whatever they admitted drains through the
	// shared pool (connection death has cancelled every request context,
	// so blocked servants abort promptly).
	a.taskWG.Wait()
}

// trackConn registers a live server connection; it returns false when the
// adapter is already closed (the connection is closed immediately).
func (a *Adapter) trackConn(c *serverConn) bool {
	a.connMu.Lock()
	defer a.connMu.Unlock()
	if a.isClosed() {
		c.conn.Close()
		return false
	}
	a.conns[c] = struct{}{}
	return true
}

// untrackConn removes a finished connection.
func (a *Adapter) untrackConn(c *serverConn) {
	a.connMu.Lock()
	delete(a.conns, c)
	a.connMu.Unlock()
}

func (a *Adapter) isClosed() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.closed
}

func (a *Adapter) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return // listener closed
		}
		a.orb.counters.connectionsAccepted.Add(1)
		a.wg.Add(1)
		go a.serveConn(conn)
	}
}

// shedReply builds the TIMEOUT reply for a request rejected by
// deadline-aware admission.
func shedReply(req *giop.Message) *giop.Message {
	reply := &giop.Message{Type: giop.MsgReply, RequestID: req.RequestID}
	setReplyError(reply, &SystemException{
		Kind:   ExTimeout,
		Detail: fmt.Sprintf("%s.%s: deadline expired before dispatch", req.ObjectKey, req.Operation),
	})
	return reply
}

// qosShedReply builds the TRANSIENT reply for a request rejected by QoS
// admission control, carrying the retry-after hint in an SCRetryAfter
// service context so callers can back off for the right amount of time
// instead of hammering a saturated server.
func qosShedReply(req *giop.Message, class Priority, reason string, retryAfter time.Duration) *giop.Message {
	reply := &giop.Message{Type: giop.MsgReply, RequestID: req.RequestID}
	setReplyError(reply, &SystemException{
		Kind:   ExTransient,
		Detail: fmt.Sprintf("%s.%s: admission shed (class %s, %s)", req.ObjectKey, req.Operation, class, reason),
	})
	if retryAfter > 0 {
		reply.Contexts = append(reply.Contexts, giop.ServiceContext{
			ID: giop.SCRetryAfter, Data: giop.EncodeRetryAfter(retryAfter),
		})
	}
	return reply
}

// isProtocolError reports whether err is a peer protocol violation worth
// answering with MsgError before dropping the connection (as opposed to a
// plain transport failure).
func isProtocolError(err error) bool {
	return errors.Is(err, giop.ErrBadMagic) ||
		errors.Is(err, giop.ErrBadVersion) ||
		errors.Is(err, giop.ErrTooBig) ||
		errors.Is(err, giop.ErrOrphanFragment)
}

// serveConn is the per-connection reactor loop: it drains batches of
// frames from the connection (many frames per read syscall via the
// FrameReader), handles control messages inline, and hands requests to
// the ORB's shared worker pool. Every request gets a context derived from
// the connection's: MsgCancelRequest cancels one request, connection
// death cancels them all, and requests whose propagated deadline has
// already expired are shed without reaching a servant.
func (a *Adapter) serveConn(conn net.Conn) {
	defer a.wg.Done()
	o := a.orb
	sc := &serverConn{
		a:        a,
		conn:     conn,
		peer:     conn.RemoteAddr().String(),
		bw:       bufio.NewWriter(conn),
		inflight: make(map[uint32]context.CancelFunc),
	}
	if !a.trackConn(sc) {
		return
	}
	defer a.untrackConn(sc)
	defer conn.Close()

	// connCtx parents every request context on this connection. The defer
	// runs before the socket teardown above it, so connection death
	// cancels queued and in-flight dispatches immediately.
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()

	frameTimeout := o.opts.FrameTimeout
	if frameTimeout < 0 {
		frameTimeout = 0 // guard disabled explicitly
	}
	fr := giop.NewFrameReader(conn, giop.FrameReaderConfig{
		MaxBody:         o.opts.MaxRequestBody,
		FrameTimeout:    frameTimeout,
		SetReadDeadline: conn.SetReadDeadline,
	})
	defer fr.Close()
	batch := make([]*giop.Message, readBatch)
	var lastReads, lastFrames uint64

	for {
		n, err := fr.ReadBatch(batch)
		if n > 0 {
			reads, frames := fr.Stats()
			o.counters.frameReads.Add(reads - lastReads)
			o.counters.framesRead.Add(frames - lastFrames)
			lastReads, lastFrames = reads, frames
			o.observeBatchSize(n)
		}
		for i, m := range batch[:n] {
			if !a.handleMessage(sc, connCtx, m) {
				for _, rest := range batch[i+1 : n] {
					rest.Release()
				}
				return
			}
		}
		if err != nil {
			var tbe *giop.TooBigError
			if errors.As(err, &tbe) {
				// Slow-loris / oversize guard: the frame was drained with
				// bounded reads, so the connection survives; the caller
				// learns its request was too big via MARSHAL.
				o.counters.oversizeRejected.Add(1)
				if tbe.ResponseExpected {
					reply := &giop.Message{Type: giop.MsgReply, RequestID: tbe.RequestID}
					setReplyError(reply, &SystemException{Kind: ExMarshal, Detail: err.Error()})
					sc.write(reply)
				}
				continue
			}
			if isProtocolError(err) {
				sc.write(&giop.Message{Type: giop.MsgError})
			}
			return
		}
	}
}

// handleMessage routes one inbound message; a false return abandons the
// connection. Request messages pass ownership to the dispatch machinery;
// everything else is handled inline and released here.
func (a *Adapter) handleMessage(sc *serverConn, connCtx context.Context, m *giop.Message) bool {
	switch m.Type {
	case giop.MsgRequest:
		a.admitRequest(sc, connCtx, m)
		return true
	case giop.MsgLocateRequest:
		status := giop.LocateUnknownObject
		if _, ok := a.Resolve(m.ObjectKey); ok {
			status = giop.LocateObjectHere
		}
		sc.write(&giop.Message{Type: giop.MsgLocateReply, RequestID: m.RequestID, LocateStatus: status})
		m.Release()
		return true
	case giop.MsgCancelRequest:
		if sc.cancelInflight(m.RequestID) {
			a.orb.counters.cancelsReceived.Add(1)
		}
		m.Release()
		return true
	case giop.MsgCloseConnection:
		m.Release()
		return false
	default:
		m.Release()
		sc.write(&giop.Message{Type: giop.MsgError})
		return false
	}
}

// admitRequest derives the request's context, applies the admission
// pipeline — deadline check, degradation-mode gate, per-tenant token
// bucket, per-class queue — and hands the request to the shared worker
// pool. It takes ownership of m.
func (a *Adapter) admitRequest(sc *serverConn, connCtx context.Context, m *giop.Message) {
	o := a.orb
	// Decode the QoS coordinates once; requests without SCQoS (every
	// pre-QoS client) are normal-class anonymous traffic.
	class, tenant := ClassNormal, ""
	if data := m.Context(giop.SCQoS); data != nil {
		if c, tn, ok := giop.DecodeQoS(data); ok {
			class, tenant = classFromWire(c), tn
		}
	}
	// Degradation-mode gate: a degraded runtime closes admission for
	// batch, a critical-only runtime for everything below critical.
	// Critical traffic is never shed here — that is what the class means.
	if mode := o.DegradeMode(); mode != ModeNormal && class != ClassCritical {
		if class == ClassBatch || mode == ModeCriticalOnly {
			a.shedQoS(sc, m, class, ShedDegradedMode, o.qos.RetryAfter)
			return
		}
	}
	// Per-tenant fairness: one token per admitted request. Critical is
	// exempt (admission control never sheds it); the hint is the exact
	// time until the tenant's next token accrues.
	if o.tenants != nil && class != ClassCritical {
		if ok, retryAfter := o.tenants.admit(tenant, time.Now()); !ok {
			a.shedQoS(sc, m, class, ShedTenantThrottle, retryAfter)
			return
		}
	}
	var rctx context.Context
	var rcancel context.CancelFunc
	if remaining, ok := giop.DecodeDeadline(m.Context(giop.SCDeadline)); ok {
		// The wire carries remaining time, not an absolute instant, so the
		// deadline is rebased onto the server's clock (tolerating skew).
		rctx, rcancel = context.WithTimeout(connCtx, remaining)
	} else if m.ResponseExpected {
		rctx, rcancel = context.WithCancel(connCtx)
	} else {
		// Zero-allocation oneway fast path: no per-request context.
		// Connection death and adapter close still cancel via connCtx;
		// wire-level cancel of an individual oneway is not supported (it
		// has no reply to save).
		rctx = connCtx
	}
	if rctx.Err() != nil {
		// Deadline-aware admission: the propagated deadline expired before
		// dispatch, so the servant is never invoked.
		o.counters.requestsShed.Add(1)
		obs.Signal(obs.AnomalyDeadlineShed)
		o.recordRequest(m, sc.peer, 0, 0, obs.OutcomeShed, class)
		if m.ResponseExpected {
			sc.write(shedReply(m))
		}
		if rcancel != nil {
			rcancel()
		}
		m.Release()
		return
	}
	if rcancel != nil {
		sc.addInflight(m.RequestID, rcancel)
	}
	t := acquireTask()
	t.a, t.sc, t.req, t.rctx, t.rcancel = a, sc, m, rctx, rcancel
	t.admitted = m.Received
	t.class, t.tenant = class, tenant
	a.taskWG.Add(1)
	switch a.pool.enqueue(t) {
	case admitQueued:
	case admitRejected:
		// Batch queue share exhausted: fast-reject with the configured
		// retry-after hint. The admission state registered above is
		// unwound here.
		o.counters.requestsShed.Add(1)
		o.admissionShed.add(t.class, ShedQueueFull)
		obs.Signal(obs.AnomalyAdmissionShed)
		o.recordRequest(m, sc.peer, 0, 0, obs.OutcomeShed, t.class)
		if m.ResponseExpected {
			sc.write(qosShedReply(m, t.class, ShedQueueFull, o.qos.RetryAfter))
		}
		if rcancel != nil {
			sc.removeInflight(m.RequestID)
			rcancel()
		}
		m.Release()
		a.taskWG.Done()
		releaseTask(t)
	default:
		// admitCtxDead / admitClosed: serveRequest takes the shed path
		// (dead context) or answers for the closing adapter.
		a.serveRequest(t)
	}
}

// shedQoS rejects one request before any admission state is registered:
// count it, record it, answer with a TRANSIENT + retry-after reply.
func (a *Adapter) shedQoS(sc *serverConn, m *giop.Message, class Priority, reason string, retryAfter time.Duration) {
	o := a.orb
	o.counters.requestsShed.Add(1)
	o.admissionShed.add(class, reason)
	obs.Signal(obs.AnomalyAdmissionShed)
	o.recordRequest(m, sc.peer, 0, 0, obs.OutcomeShed, class)
	if m.ResponseExpected {
		sc.write(qosShedReply(m, class, reason, retryAfter))
	}
	m.Release()
}

// serveRequest is the worker-side execution of one admitted request: shed
// if its context died while queued, dispatch otherwise, then clean up the
// task's cancellation state and pooled resources. The dequeue and
// dispatch-done stamps taken here, against the admission stamp carried by
// the task, feed the queue-wait and service-time signal plane — but only
// when instruments are attached, so an unobserved ORB skips the clock
// reads entirely.
func (a *Adapter) serveRequest(t *dispatchTask) {
	o := a.orb
	sc, req := t.sc, t.req
	observed := o.signals.Load() != nil || o.flight.Load() != nil
	var dequeued time.Time
	var queueWait time.Duration
	if observed {
		dequeued = time.Now()
		if !t.admitted.IsZero() {
			queueWait = dequeued.Sub(t.admitted)
		}
	}
	outcome := obs.OutcomeOK
	if err := t.rctx.Err(); err != nil {
		// Cancelled or expired between admission and dequeue: shed without
		// touching the servant.
		if err == context.DeadlineExceeded {
			o.counters.requestsShed.Add(1)
			obs.Signal(obs.AnomalyDeadlineShed)
		}
		if req.ResponseExpected {
			sc.write(shedReply(req))
		}
		outcome = obs.OutcomeShed
	} else if req.ResponseExpected {
		o.counters.inFlight.Add(1)
		reply, release := a.dispatch(t, sc.peer, req, &t.sctx)
		outcome = replyOutcome(reply.ReplyStatus)
		sc.write(reply)
		release()
		reply.Release()
		o.counters.inFlight.Add(-1)
	} else {
		o.counters.inFlight.Add(1)
		a.dispatchOneway(t, sc.peer, req, &t.sctx)
		o.counters.inFlight.Add(-1)
		outcome = obs.OutcomeOneway
	}
	if observed {
		o.recordRequest(req, sc.peer, queueWait, time.Since(dequeued), outcome, t.class)
	}
	if t.rcancel != nil {
		sc.removeInflight(req.RequestID)
		t.rcancel()
	}
	req.Release()
	a.taskWG.Done()
	releaseTask(t)
}

// replyOutcome maps a reply status to a flight-record outcome.
func replyOutcome(st giop.ReplyStatus) obs.Outcome {
	switch st {
	case giop.ReplyUserException:
		return obs.OutcomeUserException
	case giop.ReplySystemException:
		return obs.OutcomeSystemException
	case giop.ReplyLocationForward:
		return obs.OutcomeForward
	default:
		return obs.OutcomeOK
	}
}

// recordRequest feeds the load-signal histograms and the flight recorder
// for one finished (or shed) server-side request. Zero-alloc at steady
// state: interned strings, value-type records, single-label fast paths.
func (o *ORB) recordRequest(req *giop.Message, peer string, queueWait, service time.Duration, outcome obs.Outcome, class Priority) {
	sig := o.signals.Load()
	fl := o.flight.Load()
	if sig == nil && fl == nil {
		return
	}
	tc, ok := obs.DecodeTraceContext(req.Context(giop.SCTrace))
	sampled := ok && tc.Sampled
	if sig != nil {
		qh := sig.queueWait.With1(req.Operation)
		sh := sig.service.With1(req.Operation)
		if sampled {
			qh.ObserveExemplar(queueWait.Seconds(), tc.TraceID)
			sh.ObserveExemplar(service.Seconds(), tc.TraceID)
		} else {
			qh.Observe(queueWait.Seconds())
			sh.Observe(service.Seconds())
		}
	}
	if fl != nil {
		rec := obs.FlightRecord{
			Time:      time.Now().UnixNano(),
			Op:        req.Operation,
			Peer:      peer,
			Side:      obs.SideServer,
			Bytes:     int32(len(req.Body)),
			QueueWait: int64(queueWait),
			Service:   int64(service),
			Outcome:   outcome,
			Class:     class.String(),
		}
		if sampled {
			rec.Trace = tc.TraceID
		}
		fl.Record(rec)
	}
}

// exportConnInflight emits the per-connection inflight gauge series at
// scrape time, across every adapter's live connections.
func (o *ORB) exportConnInflight(emit func(labelValues []string, v float64)) {
	o.mu.Lock()
	adapters := append([]*Adapter(nil), o.adapters...)
	o.mu.Unlock()
	for _, a := range adapters {
		a.connMu.Lock()
		conns := make([]*serverConn, 0, len(a.conns))
		for c := range a.conns {
			conns = append(conns, c)
		}
		a.connMu.Unlock()
		for _, c := range conns {
			c.mu.Lock()
			n := len(c.inflight)
			c.mu.Unlock()
			emit([]string{c.peer}, float64(n))
		}
	}
}

// dispatch runs one request through interceptors and the target servant,
// translating panics and errors into exception replies. The reply is a
// pooled message whose body rides a pooled encoder: the caller writes the
// reply, then calls the returned release func, then releases the reply.
// sctx is the caller-owned ServerContext scratch for this dispatch.
func (a *Adapter) dispatch(t *dispatchTask, peer string, req *giop.Message, sctx *ServerContext) (*giop.Message, func()) {
	a.orb.counters.requestsServed.Add(1)
	rctx := a.orb.callDispatchStart(t.rctx, req)

	reply := giop.AcquireMessage()
	reply.Type = giop.MsgReply
	reply.RequestID = req.RequestID
	*sctx = ServerContext{ORB: a.orb, Adapter: a, Peer: peer, Priority: t.class, Tenant: t.tenant, Request: req, ctx: rctx, replyContexts: sctx.replyContexts[:0]}

	out := cdr.AcquireEncoder()
	in := cdr.AcquireDecoder(req.Body)
	sv, ok := a.Resolve(req.ObjectKey)
	if !ok || a.isClosed() {
		encodeReplyError(reply, ObjectNotExist(req.ObjectKey), out)
	} else if req.Operation == OpIsA {
		// Reserved operation handled by the adapter for every servant
		// (CORBA Object::_is_a analogue): type compatibility check.
		want := in.GetString()
		if err := in.Err(); err != nil {
			encodeReplyError(reply, &SystemException{Kind: ExMarshal, Detail: err.Error()}, out)
		} else {
			out.PutBool(want == sv.TypeID())
			reply.ReplyStatus = giop.ReplyNoException
			reply.Body = out.Bytes()
		}
	} else {
		err := safeInvoke(sv, sctx, req.Operation, in, out)
		if err != nil {
			encodeReplyError(reply, err, out)
		} else {
			reply.ReplyStatus = giop.ReplyNoException
			reply.Body = out.Bytes()
		}
	}
	in.Release()
	reply.Contexts = append(reply.Contexts, sctx.replyContexts...)
	a.orb.callDispatchEnd(rctx, req, reply)
	return reply, out.Release
}

// dispatchOneway runs a oneway request: the same interception points as
// dispatch, but no reply is assembled (DispatchEnd receives a nil reply,
// per the CallInterceptor contract) and servant errors have nowhere to
// go. This path is allocation-free in the steady state.
func (a *Adapter) dispatchOneway(t *dispatchTask, peer string, req *giop.Message, sctx *ServerContext) {
	a.orb.counters.requestsServed.Add(1)
	rctx := a.orb.callDispatchStart(t.rctx, req)

	*sctx = ServerContext{ORB: a.orb, Adapter: a, Peer: peer, Priority: t.class, Tenant: t.tenant, Request: req, ctx: rctx, replyContexts: sctx.replyContexts[:0]}

	out := cdr.AcquireEncoder()
	in := cdr.AcquireDecoder(req.Body)
	if sv, ok := a.Resolve(req.ObjectKey); ok && !a.isClosed() && req.Operation != OpIsA {
		_ = safeInvoke(sv, sctx, req.Operation, in, out)
	}
	in.Release()
	out.Release()
	a.orb.callDispatchEnd(rctx, req, nil)
}

// safeInvoke shields the dispatcher from servant panics, converting them
// to INTERNAL system exceptions (a crashed servant must not take down the
// adapter, only the one call).
func safeInvoke(sv Servant, ctx *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SystemException{Kind: ExInternal, Detail: fmt.Sprintf("servant panic in %s: %v", op, r)}
		}
	}()
	return sv.Invoke(ctx, op, in, out)
}

// setReplyError encodes err into reply as a user or system exception.
func setReplyError(reply *giop.Message, err error) {
	encodeReplyError(reply, err, cdr.NewEncoder(64))
}

// encodeReplyError encodes err into reply using e (reset first), so the
// dispatch hot path can reuse its pooled encoder for error bodies.
func encodeReplyError(reply *giop.Message, err error, e *cdr.Encoder) {
	e.Reset()
	switch x := err.(type) {
	case *UserException:
		reply.ReplyStatus = giop.ReplyUserException
		x.MarshalCDR(e)
	case *SystemException:
		reply.ReplyStatus = giop.ReplySystemException
		x.MarshalCDR(e)
	case *ForwardError:
		reply.ReplyStatus = giop.ReplyLocationForward
		x.Target.MarshalCDR(e)
	default:
		reply.ReplyStatus = giop.ReplySystemException
		se := &SystemException{Kind: ExUnknown, Detail: err.Error()}
		se.MarshalCDR(e)
	}
	reply.Body = e.Bytes()
}
