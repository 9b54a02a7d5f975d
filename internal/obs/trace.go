// Package obs is the runtime's observability layer: distributed traces,
// metrics and trace-correlated structured logging for the ORB and every
// service built on it.
//
// Traces follow the W3C/OpenTelemetry shape — a 128-bit trace id shared
// by every span of one logical operation, 64-bit span ids forming a
// parent/child tree — and cross process borders in the SCTrace GIOP
// service context (see giop.SCTrace and EncodeTraceContext). Completed
// sampled spans land in a fixed-size Ring served by the /debug/traces
// HTTP endpoint; metrics are exported in Prometheus text format on
// /metrics. The package depends only on the wire layers (giop, cdr), so
// orb, ft, naming and winner can all record spans without import cycles.
package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 128-bit identifier shared by every span of one trace.
type TraceID [16]byte

// IsZero reports whether the id is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 64-bit identifier of one span.
type SpanID [8]byte

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated part of a span: what crosses the wire in
// the SCTrace service context.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the head-based sampling decision, made once at the trace
	// root and inherited by every child, local or remote.
	Sampled bool
}

// Attr is one key/value annotation on a span or event. Values are
// strings; use the String/Int/Bool constructors.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", value)} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: fmt.Sprintf("%t", value)} }

// Event is a timestamped point annotation on a span (e.g. the moment a
// COMM_FAILURE was detected, or a recovery completed).
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. All methods are safe on a nil
// receiver (they no-op), so call sites never need nil checks, and safe
// for concurrent use.
type Span struct {
	tracer  *Tracer
	name    string
	service string
	sc      SpanContext
	parent  SpanID
	start   time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	errMsg string
	end    time.Time
	ended  bool
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Service returns the name of the service that recorded the span.
func (s *Span) Service() string {
	if s == nil {
		return ""
	}
	return s.service
}

// Parent returns the parent span id (zero for roots).
func (s *Span) Parent() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// StartTime returns when the span began.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end-start for ended spans, time-since-start otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.end.Sub(s.start)
	}
	return time.Since(s.start)
}

// Err returns the error message recorded at End, if any.
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}

// SetAttr sets (or replaces) an attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Attr returns the value of the attribute with the given key.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// AddEvent records a timestamped event on the span.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, Event{Time: time.Now(), Name: name, Attrs: attrs})
}

// Events returns a copy of the span's events.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Event returns the first event with the given name.
func (s *Span) Event(name string) (Event, bool) {
	if s == nil {
		return Event{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.events {
		if e.Name == name {
			return e, true
		}
	}
	return Event{}, false
}

// End completes the span and, when sampled, records it in the tracer's
// ring. End is idempotent; only the first call takes effect.
func (s *Span) End() { s.EndErr(nil) }

// EndErr completes the span, recording err (when non-nil) as its failure.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	if err != nil {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
	if s.sc.Sampled && s.tracer != nil && s.tracer.ring != nil {
		s.tracer.ring.add(s)
	}
}

// Tracer creates spans for one service (process) and records the sampled
// ones in its Ring.
type Tracer struct {
	service string
	sample  float64
	ring    *Ring
}

// TracerOption customizes a Tracer.
type TracerOption func(*Tracer)

// WithRing makes the tracer record completed spans into ring.
func WithRing(r *Ring) TracerOption { return func(t *Tracer) { t.ring = r } }

// WithSample sets the head-based sampling fraction in [0,1] (default 1:
// every trace is recorded). The decision is a deterministic function of
// the trace id, so all spans of one trace — across processes — agree.
func WithSample(fraction float64) TracerOption { return func(t *Tracer) { t.sample = fraction } }

// NewTracer creates a tracer for service. Without WithRing it records
// into a private 1024-span ring.
func NewTracer(service string, opts ...TracerOption) *Tracer {
	t := &Tracer{service: service, sample: 1}
	for _, o := range opts {
		o(t)
	}
	if t.ring == nil {
		t.ring = NewRing(1024)
	}
	return t
}

// Service returns the tracer's service name.
func (t *Tracer) Service() string { return t.service }

// Ring returns the tracer's completed-span ring.
func (t *Tracer) Ring() *Ring { return t.ring }

// sampled makes the deterministic head sampling decision for a trace id.
func (t *Tracer) sampled(id TraceID) bool {
	if t.sample >= 1 {
		return true
	}
	if t.sample <= 0 {
		return false
	}
	// Upper 63 bits of the id as a uniform fraction of [0,1).
	f := float64(binary.BigEndian.Uint64(id[:8])>>1) / float64(uint64(1)<<63)
	return f < t.sample
}

// SpanOption customizes one Start call.
type SpanOption func(*spanConfig)

type spanConfig struct {
	remote    SpanContext
	hasRemote bool
	attrs     []Attr
}

// WithRemoteParent parents the new span under a context received from a
// remote peer (decoded from the SCTrace service context). A live local
// parent span in ctx takes precedence.
func WithRemoteParent(sc SpanContext) SpanOption {
	return func(c *spanConfig) { c.remote, c.hasRemote = sc, true }
}

// WithAttrs sets initial attributes on the new span.
func WithAttrs(attrs ...Attr) SpanOption {
	return func(c *spanConfig) { c.attrs = append(c.attrs, attrs...) }
}

// Start begins a span named name: a child of the span in ctx if any, else
// of the remote parent given via WithRemoteParent, else a new trace root
// (where the sampling decision is made). The returned context carries the
// new span for nested calls.
func (t *Tracer) Start(ctx context.Context, name string, opts ...SpanOption) (context.Context, *Span) {
	var cfg spanConfig
	for _, o := range opts {
		o(&cfg)
	}
	var sc SpanContext
	var parent SpanID
	switch {
	case SpanFromContext(ctx) != nil:
		psc := SpanFromContext(ctx).Context()
		sc = SpanContext{TraceID: psc.TraceID, SpanID: newSpanID(), Sampled: psc.Sampled}
		parent = psc.SpanID
	case cfg.hasRemote && !cfg.remote.TraceID.IsZero():
		sc = SpanContext{TraceID: cfg.remote.TraceID, SpanID: newSpanID(), Sampled: cfg.remote.Sampled}
		parent = cfg.remote.SpanID
	default:
		id := newTraceID()
		sc = SpanContext{TraceID: id, SpanID: newSpanID(), Sampled: t.sampled(id)}
	}
	s := &Span{
		tracer:  t,
		name:    name,
		service: t.service,
		sc:      sc,
		parent:  parent,
		start:   time.Now(),
		attrs:   cfg.attrs,
	}
	return ContextWithSpan(ctx, s), s
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, span)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// defaultTracer, when installed, records the root spans library layers
// (ft, orb, rosen) start outside any trace. None is installed at start-up.
var defaultTracer atomic.Pointer[Tracer]

// Default returns the process-wide fallback tracer, nil when there is
// none.
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault installs the process-wide fallback tracer; nil removes it.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// StartSpan begins a span under the span in ctx, using that span's tracer
// so whole traces land in one ring; without a parent it starts a new root
// on the Default tracer. With neither — nobody is recording — it returns
// ctx and a nil span, whose methods all no-op: an unobserved call draws no
// ids and allocates nothing. Callers that compute an attribute at some
// cost can test the returned span for nil first. This is the entry point
// library layers use.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tracer := Default()
	if parent := SpanFromContext(ctx); parent != nil && parent.tracer != nil {
		tracer = parent.tracer
	}
	if tracer == nil {
		return ctx, nil
	}
	return tracer.Start(ctx, name, WithAttrs(attrs...))
}

// newTraceID draws a random non-zero 128-bit trace id.
func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		_, _ = cryptorand.Read(id[:])
	}
	return id
}

// newSpanID draws a random non-zero 64-bit span id.
func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		_, _ = cryptorand.Read(id[:])
	}
	return id
}
