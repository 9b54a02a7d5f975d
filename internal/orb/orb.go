// Package orb implements a compact Object Request Broker: the runtime the
// paper assumes from omniORB, rebuilt from scratch on net/TCP. It provides
// object adapters hosting servants, interoperable object references,
// synchronous remote invocation, DII-style deferred requests, pluggable
// request interceptors (used for virtual-time propagation), and CORBA-style
// system exceptions — in particular COMM_FAILURE semantics on broken
// transports, which the fault-tolerance layer depends on.
package orb

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
	"repro/internal/obs"
)

// Dialer opens client-side transport connections — the ORB's outbound
// seam. *net.Dialer satisfies it; fault-injection transports
// (internal/faultnet) wrap it to impose failures without touching any
// ORB code.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// ListenFunc creates server-side listeners — the ORB's inbound seam.
// net.Listen satisfies it; fault-injection transports wrap it to impose
// failures on accepted connections.
type ListenFunc func(network, addr string) (net.Listener, error)

// CallInterceptor observes invocations with their contexts, and may
// mutate their messages, at the four classical interception points (CORBA
// portable interceptor analogue). Cross-cutting concerns live here:
// distributed tracing (obs.Observer) injects and extracts the SCTrace
// service context, the simulated cluster propagates virtual time. The
// context returned by RequestSent flows to the matching ReplyReceived;
// the context returned by DispatchStart is the one the servant sees via
// ServerContext.Context, and flows to DispatchEnd. Messages received off
// the wire alias pooled read windows: a hook may read them while it runs
// and must copy what it keeps. Implementations must be safe for concurrent
// use.
type CallInterceptor interface {
	// RequestSent runs on the client after a request is assembled,
	// before it is written to the wire.
	RequestSent(ctx context.Context, m *giop.Message) context.Context
	// ReplyReceived runs on the client when the invocation completes:
	// reply is nil for oneways and transport failures, err is the
	// transport-level failure if any.
	ReplyReceived(ctx context.Context, req, reply *giop.Message, err error)
	// DispatchStart runs on the server before the servant is invoked.
	DispatchStart(ctx context.Context, req *giop.Message) context.Context
	// DispatchEnd runs on the server after the reply is assembled, before
	// it is written (reply is nil for oneway dispatches).
	DispatchEnd(ctx context.Context, req, reply *giop.Message)
}

// Options configure an ORB.
type Options struct {
	// Name identifies this ORB (process) in service contexts and logs.
	Name string
	// CallTimeout is the default per-call deadline, applied whenever a
	// call's CallOptions.Deadline is zero and its context carries no
	// tighter deadline of its own. Zero means no default timeout.
	CallTimeout time.Duration
	// DialTimeout bounds connection establishment. Zero means 10s.
	DialTimeout time.Duration
	// CallInterceptors run in order on the outbound points and in
	// reverse on the inbound ones.
	CallInterceptors []CallInterceptor
	// WorkerPool sizes the ORB-wide dispatch pool shared by every adapter
	// connection: at most this many servant invocations run concurrently.
	// Zero means max(8, 2×GOMAXPROCS).
	WorkerPool int
	// DispatchQueueDepth caps the total number of admitted requests
	// waiting for a dispatch worker across all priority classes. Zero
	// means max(256, 16×workers).
	DispatchQueueDepth int
	// QoS shapes the server adapter's admission control: per-class
	// dequeue weights, the batch queue share, per-tenant token-bucket
	// rates and the retry-after hint attached to sheds. The zero value
	// enables class-aware dispatch with defaults and no tenant
	// throttling.
	QoS QoSOptions
	// MaxRequestBody caps the declared body size of inbound frames. An
	// oversized request is drained with bounded reads (never buffered)
	// and answered with a MARSHAL system exception; the connection
	// survives. Zero means giop.MaxMessageSize.
	MaxRequestBody int
	// FrameTimeout bounds how long an inbound frame may sit partially
	// received (slow-loris guard): the read deadline arms when a frame's
	// first byte arrives and disarms at the frame boundary, so idle
	// connections are unaffected. Zero means 30s; negative disables the
	// guard.
	FrameTimeout time.Duration
	// Dialer opens outbound connections. Nil means a plain net.Dialer.
	// This is the transport seam fault-injection layers plug into.
	Dialer Dialer
	// Listen creates adapter listeners. Nil means net.Listen.
	Listen ListenFunc
}

// ORB is the object request broker runtime: it owns the client connection
// pool and the server-side object adapters created from it.
type ORB struct {
	opts Options

	reqID    atomic.Uint32
	counters orbCounters

	// batchHist, when set by ExportStats, receives one observation per
	// reactor read batch (the batch size in frames).
	batchHist atomic.Pointer[obs.Histogram]

	// signals, when set by ExportStats, carries the reactor's per-request
	// load-signal instruments (queue-wait and service-time histograms);
	// flight, when set by AttachFlightRecorder, receives one black-box
	// record per request. Both are atomic pointers so an unobserved ORB
	// pays one load and a branch per request.
	signals atomic.Pointer[loadSignals]
	flight  atomic.Pointer[obs.FlightRecorder]

	// qos is the resolved admission-control configuration; tenants is the
	// per-tenant token-bucket table (nil when tenant throttling is off);
	// admissionShed counts QoS rejections per class and reason.
	qos           QoSOptions
	tenants       *tenantBuckets
	admissionShed shedCounters

	// degrade is the adaptive-degradation mode (a DegradeMode); every
	// admission decision loads it.
	degrade      atomic.Int32
	degradeHooks []func(DegradeMode) // registered at setup, called on transitions

	mu       sync.Mutex
	conns    map[string]*clientConn // keyed by remote address
	dials    map[string]*dialWait   // in-flight dials, keyed by address
	adapters []*Adapter
	pool     *workerPool // shared dispatch pool, started by the first adapter
	shutdown bool
}

// readBatch caps how many frames one connection's read loop takes per
// wakeup: requests the server hands to the dispatch pool, replies the
// client hands to their callers.
const readBatch = 32

// dialWait is one in-flight dial: concurrent callers for the same address
// wait on done instead of racing their own dials (per-address
// singleflight).
type dialWait struct {
	done chan struct{}
	conn *clientConn
	err  error
}

// New creates an ORB (the CORBA ORB_init analogue).
func New(opts Options) *ORB {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.FrameTimeout == 0 {
		opts.FrameTimeout = 30 * time.Second
	}
	if opts.Dialer == nil {
		opts.Dialer = &net.Dialer{}
	}
	if opts.Listen == nil {
		opts.Listen = net.Listen
	}
	o := &ORB{
		opts:  opts,
		qos:   opts.QoS.withDefaults(),
		conns: make(map[string]*clientConn),
		dials: make(map[string]*dialWait),
	}
	if o.qos.TenantRate > 0 {
		o.tenants = newTenantBuckets(o.qos.TenantRate, o.qos.TenantBurst)
	}
	return o
}

// Name returns the ORB's configured name.
func (o *ORB) Name() string { return o.opts.Name }

// nextRequestID allocates a process-unique request id.
func (o *ORB) nextRequestID() uint32 { return o.reqID.Add(1) }

// AddCallInterceptor registers an interceptor after construction. It is
// not safe to call concurrently with active invocations; register
// interceptors during setup.
func (o *ORB) AddCallInterceptor(ci CallInterceptor) {
	o.opts.CallInterceptors = append(o.opts.CallInterceptors, ci)
}

func (o *ORB) callRequestSent(ctx context.Context, m *giop.Message) context.Context {
	for _, ci := range o.opts.CallInterceptors {
		ctx = ci.RequestSent(ctx, m)
	}
	return ctx
}

func (o *ORB) callReplyReceived(ctx context.Context, req, reply *giop.Message, err error) {
	for k := len(o.opts.CallInterceptors) - 1; k >= 0; k-- {
		o.opts.CallInterceptors[k].ReplyReceived(ctx, req, reply, err)
	}
}

func (o *ORB) callDispatchStart(ctx context.Context, req *giop.Message) context.Context {
	for k := len(o.opts.CallInterceptors) - 1; k >= 0; k-- {
		ctx = o.opts.CallInterceptors[k].DispatchStart(ctx, req)
	}
	return ctx
}

func (o *ORB) callDispatchEnd(ctx context.Context, req, reply *giop.Message) {
	for _, ci := range o.opts.CallInterceptors {
		ci.DispatchEnd(ctx, req, reply)
	}
}

// Shutdown closes all adapters and client connections. Outstanding calls
// fail with COMM_FAILURE.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		return
	}
	o.shutdown = true
	adapters := o.adapters
	o.adapters = nil
	conns := o.conns
	o.conns = make(map[string]*clientConn)
	pool := o.pool
	o.pool = nil
	o.mu.Unlock()

	for _, a := range adapters {
		a.Close()
	}
	for _, c := range conns {
		c.close(CommFailure("orb shutdown"))
	}
	if pool != nil {
		// Adapters have drained their tasks, so the queue is empty and
		// closing it releases every worker.
		pool.stop()
	}
}

// observeBatchSize records one reactor batch size when a metrics registry
// is attached (no-op otherwise; the hot path pays one atomic load).
func (o *ORB) observeBatchSize(n int) {
	if h := o.batchHist.Load(); h != nil {
		h.Observe(float64(n))
	}
}

// dropConn removes a connection from the pool if it is still the pooled
// entry for its address.
func (o *ORB) dropConn(c *clientConn) {
	o.mu.Lock()
	if o.conns[c.addr] == c {
		delete(o.conns, c.addr)
	}
	o.mu.Unlock()
}

// removeAdapter forgets a closed adapter.
func (o *ORB) removeAdapter(a *Adapter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, x := range o.adapters {
		if x == a {
			o.adapters = append(o.adapters[:i], o.adapters[i+1:]...)
			return
		}
	}
}
