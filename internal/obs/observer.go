package obs

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/giop"
)

// Observer bundles the full diagnostics plane for one process — tracer,
// metric registry, span ring, flight recorder, anomaly sink and health
// probes — and implements the ORB's call-interceptor hooks: it starts a
// client span and injects the SCTrace service context on request send,
// continues the remote trace on dispatch, and feeds per-method latency
// histograms (with trace-linked exemplars) and error counters on
// completion.
//
// Observer implements orb.CallInterceptor structurally — obs cannot
// import orb (orb imports obs for Stats export), so the interface match
// is by shape, checked by a compile-time assertion in the orb package's
// tests.
//
// The interceptor hot path is allocation-lean by design: when the head
// sampler declines a trace, no Span is created at all — the client pins
// a pooled obsCall in the context (one allocation) so latency metrics
// still flow, the wire carries a pre-encoded "not sampled" SCTrace, and
// the server side adds nothing. BenchmarkSyncCallObserved measures the
// ≤2-allocs-per-call budget over an unobserved ORB.
type Observer struct {
	Service  string
	Tracer   *Tracer
	Registry *Registry
	Ring     *Ring
	// Flight is the per-process black-box recorder; the ORB's reactor
	// and client feed it when attached (see orb.ObserveOpts).
	Flight *FlightRecorder
	// Health aggregates component probes for /healthz and /readyz.
	Health *Health
	// Anomalies is the anomaly sink that auto-dumps Flight on trips.
	Anomalies *Anomalies

	sample        float64
	notSampledSC  []byte // pre-encoded SCTrace payload for unsampled calls
	clientLatency *HistogramVec
	serverLatency *HistogramVec
	rpcErrors     *CounterVec
}

// ringSize bounds an Observer's completed-span ring.
const ringSize = 2048

// SampleNone disables head sampling entirely (metrics and the flight
// recorder stay on; no spans are recorded).
const SampleNone = -1

// ObserverOptions tunes NewObserverOpts. The zero value means: sample
// every trace, no anomaly dumps.
type ObserverOptions struct {
	// Sample is the head-based trace sampling fraction in (0,1]; 0 means
	// the default (1: every trace). Use SampleNone for no sampling.
	Sample float64
	// Anomaly configures the anomaly sink (burst rules, dump directory).
	Anomaly AnomalyOptions
}

// NewObserver creates a ready-to-attach Observer for service with
// default options: every trace sampled, no anomaly dump directory.
func NewObserver(service string) *Observer {
	return NewObserverOpts(service, ObserverOptions{})
}

// NewObserverOpts creates an Observer with explicit options.
func NewObserverOpts(service string, opts ObserverOptions) *Observer {
	if opts.Sample == 0 {
		opts.Sample = 1
	}
	reg := NewRegistry()
	ring := NewRing(ringSize)
	flight := NewFlightRecorder(DefaultFlightRecorderSize)
	ob := &Observer{
		Service:   service,
		Tracer:    NewTracer(service, WithRing(ring), WithSample(opts.Sample)),
		Registry:  reg,
		Ring:      ring,
		Flight:    flight,
		Health:    NewHealth(),
		Anomalies: NewAnomalies(service, flight, opts.Anomaly),
		sample:    opts.Sample,
	}
	// The shared SCTrace payload every unsampled outbound call carries: a
	// process-constant non-zero trace id with the sampled bit clear, so
	// the receiving reactor skips span creation without re-deciding.
	ob.notSampledSC = EncodeTraceContext(SpanContext{TraceID: newTraceID(), SpanID: newSpanID()})
	ob.clientLatency = reg.NewHistogramVec("rpc_client_latency_seconds",
		"Outbound request latency by method.", DefaultLatencyBuckets, "method")
	ob.serverLatency = reg.NewHistogramVec("rpc_server_latency_seconds",
		"Dispatch latency by method.", DefaultLatencyBuckets, "method")
	ob.rpcErrors = reg.NewCounterVec("rpc_errors_total",
		"RPC failures by side, method and exception kind.", "side", "method", "kind")
	flight.ExportMetrics(reg)
	ob.Anomalies.ExportMetrics(reg)
	return ob
}

// ClientLatency returns the outbound latency histogram family.
func (ob *Observer) ClientLatency() *HistogramVec { return ob.clientLatency }

// obsCall is the per-outbound-call state the observer pins in the
// context between RequestSent and ReplyReceived. Pooled so the
// unsampled fast path costs one allocation (the context value) per
// call.
type obsCall struct {
	span  *Span
	start time.Time
}

var obsCallPool = sync.Pool{New: func() any { return new(obsCall) }}

// Keys under which the observer stashes its own state in the context,
// so the completion hooks never mistake an application span (e.g.
// ft.invoke) for one they own.
type obsCallKey struct{}
type serverSpanKey struct{}

// systemKinder is the structural shape of orb system exceptions
// (*orb.SystemException has SystemKind); matching by shape instead of
// type keeps obs free of an orb import.
type systemKinder interface{ SystemKind() string }

// errKind maps an invocation error to a counter label.
func errKind(err error) string {
	var sk systemKinder
	if errors.As(err, &sk) {
		return sk.SystemKind()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "DEADLINE"
	}
	if errors.Is(err, context.Canceled) {
		return "CANCELED"
	}
	return "ERROR"
}

// headSampled makes the local sampling decision for a fresh root. Only
// called when no parent span constrains the choice; the decision is
// encoded on the wire so the callee never re-decides.
func (ob *Observer) headSampled() bool {
	if ob.sample >= 1 {
		return true
	}
	if ob.sample <= 0 {
		return false
	}
	return rand.Float64() < ob.sample
}

// RequestSent starts the client side of an outbound request: a span
// (when sampled — a live parent span in ctx always wins) plus the
// SCTrace injection, or just a pooled timestamp on the fast path.
// Called by the ORB after message-level interceptors, before the bytes
// hit the wire.
func (ob *Observer) RequestSent(ctx context.Context, m *giop.Message) context.Context {
	c := obsCallPool.Get().(*obsCall)
	c.start = time.Now()
	parent := SpanFromContext(ctx)
	if parent == nil && !ob.headSampled() {
		c.span = nil
		m.SetContext(giop.SCTrace, ob.notSampledSC)
		return context.WithValue(ctx, obsCallKey{}, c)
	}
	tracer := ob.Tracer
	if parent != nil && parent.tracer != nil {
		tracer = parent.tracer
	}
	_, span := tracer.Start(ctx, m.Operation,
		WithAttrs(String("side", "client"), String("key", m.ObjectKey)))
	m.SetContext(giop.SCTrace, EncodeTraceContext(span.Context()))
	c.span = span
	return context.WithValue(ctx, obsCallKey{}, c)
}

// ReplyReceived completes the client side: latency (exemplar-linked
// when a sampled span exists) and error counters. reply is nil for
// oneway sends and transport failures.
func (ob *Observer) ReplyReceived(ctx context.Context, req, reply *giop.Message, err error) {
	c, _ := ctx.Value(obsCallKey{}).(*obsCall)
	if c == nil {
		return
	}
	span := c.span
	lat := time.Since(c.start).Seconds()
	h := ob.clientLatency.With1(req.Operation)
	if span != nil && span.Context().Sampled {
		h.ObserveExemplar(lat, span.Context().TraceID)
	} else {
		h.Observe(lat)
	}
	switch {
	case err != nil:
		kind := errKind(err)
		ob.rpcErrors.With("client", req.Operation, kind).Inc()
		span.SetAttr("error_kind", kind)
		span.EndErr(err)
	case reply != nil && reply.ReplyStatus == giop.ReplySystemException:
		ob.rpcErrors.With("client", req.Operation, "SYSTEM_EXCEPTION").Inc()
		span.SetAttr("error_kind", "SYSTEM_EXCEPTION")
		span.End()
	case reply != nil && reply.ReplyStatus == giop.ReplyUserException:
		ob.rpcErrors.With("client", req.Operation, "USER_EXCEPTION").Inc()
		span.SetAttr("error_kind", "USER_EXCEPTION")
		span.End()
	default:
		span.End()
	}
	c.span = nil
	obsCallPool.Put(c)
}

// DispatchStart continues the caller's trace (from the SCTrace service
// context, when present) in a server span covering the dispatch. When
// the caller marked the trace not-sampled — or no context arrived and
// the local sampler declines — the context is returned untouched: the
// server fast path adds zero allocations, and the reactor's own
// queue-wait/service-time instrumentation remains the latency source.
func (ob *Observer) DispatchStart(ctx context.Context, req *giop.Message) context.Context {
	sc, ok := DecodeTraceContext(req.Context(giop.SCTrace))
	if ok && !sc.Sampled {
		return ctx
	}
	if !ok && !ob.headSampled() {
		return ctx
	}
	opts := []SpanOption{WithAttrs(String("side", "server"), String("key", req.ObjectKey))}
	if ok {
		opts = append(opts, WithRemoteParent(sc))
	}
	ctx, span := ob.Tracer.Start(ctx, req.Operation, opts...)
	return context.WithValue(ctx, serverSpanKey{}, span)
}

// DispatchEnd completes the server span (when DispatchStart created
// one) and records dispatch latency and exception counters. reply is
// nil for oneway dispatches.
func (ob *Observer) DispatchEnd(ctx context.Context, req, reply *giop.Message) {
	span, _ := ctx.Value(serverSpanKey{}).(*Span)
	if span != nil {
		lat := time.Since(span.StartTime()).Seconds()
		h := ob.serverLatency.With1(req.Operation)
		if span.Context().Sampled {
			h.ObserveExemplar(lat, span.Context().TraceID)
		} else {
			h.Observe(lat)
		}
	}
	if reply != nil && reply.ReplyStatus != giop.ReplyNoException && reply.ReplyStatus != giop.ReplyLocationForward {
		kind := reply.ReplyStatus.String()
		ob.rpcErrors.With("server", req.Operation, kind).Inc()
		span.SetAttr("error_kind", kind)
	}
	span.End()
}
