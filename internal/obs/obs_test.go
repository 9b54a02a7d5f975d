package obs

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanParentage(t *testing.T) {
	tr := NewTracer("test")
	ctx, root := tr.Start(context.Background(), "root")
	cctx, child := tr.Start(ctx, "child")
	_, grand := tr.Start(cctx, "grandchild")

	if root.Context().TraceID.IsZero() {
		t.Fatal("root has no trace id")
	}
	if child.Context().TraceID != root.Context().TraceID || grand.Context().TraceID != root.Context().TraceID {
		t.Fatal("children changed trace id")
	}
	if child.Parent() != root.Context().SpanID {
		t.Fatalf("child parent = %v, want root %v", child.Parent(), root.Context().SpanID)
	}
	if grand.Parent() != child.Context().SpanID {
		t.Fatalf("grandchild parent = %v, want child %v", grand.Parent(), child.Context().SpanID)
	}
	if !root.Parent().IsZero() {
		t.Fatal("root should have no parent")
	}
}

func TestRemoteParent(t *testing.T) {
	client := NewTracer("client")
	server := NewTracer("server")
	_, cs := client.Start(context.Background(), "call")

	sc, ok := DecodeTraceContext(EncodeTraceContext(cs.Context()))
	if !ok {
		t.Fatal("trace context did not round-trip")
	}
	_, ss := server.Start(context.Background(), "dispatch", WithRemoteParent(sc))
	if ss.Context().TraceID != cs.Context().TraceID {
		t.Fatal("remote parent did not propagate trace id")
	}
	if ss.Parent() != cs.Context().SpanID {
		t.Fatal("remote parent did not become the parent span")
	}
}

func TestDecodeTraceContextRejectsMalformed(t *testing.T) {
	if _, ok := DecodeTraceContext(nil); ok {
		t.Fatal("nil decoded")
	}
	if _, ok := DecodeTraceContext(make([]byte, 10)); ok {
		t.Fatal("short payload decoded")
	}
	if _, ok := DecodeTraceContext(make([]byte, 25)); ok {
		t.Fatal("all-zero payload decoded")
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := NewTracer("test", WithRing(NewRing(2)))
	for i := 0; i < 3; i++ {
		_, s := tr.Start(context.Background(), "s")
		s.End()
	}
	if got := tr.Ring().Len(); got != 2 {
		t.Fatalf("ring holds %d spans, want 2", got)
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	tr := NewTracer("test", WithRing(NewRing(8)))
	_, s := tr.Start(context.Background(), "once")
	s.End()
	s.EndErr(errors.New("late"))
	if s.Err() != "" {
		t.Fatal("second End mutated the span")
	}
	if tr.Ring().Len() != 1 {
		t.Fatalf("span recorded %d times", tr.Ring().Len())
	}

	var nilSpan *Span
	nilSpan.End()
	nilSpan.AddEvent("e")
	nilSpan.SetAttr("k", "v")
	if nilSpan.Name() != "" || nilSpan.Duration() != 0 {
		t.Fatal("nil span accessors")
	}
}

func TestTracesGroupsByTraceID(t *testing.T) {
	tr := NewTracer("test", WithRing(NewRing(16)))
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	child.End()
	root.End()
	_, other := tr.Start(context.Background(), "other")
	other.End()

	traces := tr.Ring().Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	for _, g := range traces {
		if g.TraceID == root.Context().TraceID && len(g.Spans) != 2 {
			t.Fatalf("root trace has %d spans, want 2", len(g.Spans))
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	never := NewTracer("never", WithSample(0))
	_, s := never.Start(context.Background(), "x")
	s.End()
	if never.Ring().Len() != 0 {
		t.Fatal("sample=0 recorded a span")
	}
	// Children inherit the root's decision even under a sampling tracer.
	ctx, root := never.Start(context.Background(), "root")
	_, child := never.Start(ctx, "child")
	if child.Context().Sampled != root.Context().Sampled {
		t.Fatal("child sampling decision diverged from root")
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("widget_total", "Widgets.", "kind")
	cv.With("round").Add(3)
	cv.With("square").Inc()
	hv := reg.NewHistogramVec("lat_seconds", "Latency.", []float64{0.1, 1}, "method")
	hv.With("solve").Observe(0.05)
	hv.With("solve").Observe(0.5)
	hv.With("solve").Observe(5)
	reg.NewCounterFunc("fn_total", "Fn.", func() uint64 { return 7 })
	reg.NewGaugeFunc("g", "G.", func() float64 { return 1.5 })

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`widget_total{kind="round"} 3`,
		`widget_total{kind="square"} 1`,
		`lat_seconds_bucket{method="solve",le="0.1"} 1`,
		`lat_seconds_bucket{method="solve",le="1"} 2`,
		`lat_seconds_bucket{method="solve",le="+Inf"} 3`,
		`lat_seconds_count{method="solve"} 3`,
		"# TYPE lat_seconds histogram",
		"fn_total 7",
		"g 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	reg := NewRegistry()
	hv := reg.NewHistogramVec("h", "H.", []float64{0.001, 0.01, 0.1}, "m")
	h := hv.With("op")
	for i := 0; i < 90; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	snaps := hv.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	s := snaps[0]
	if q := s.Quantile(0.5); q != 0.001 {
		t.Fatalf("p50 = %v, want 0.001", q)
	}
	if q := s.Quantile(0.99); q != 0.1 {
		t.Fatalf("p99 = %v, want 0.1", q)
	}
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v", b)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	ob := NewObserver("test-svc")
	ob.ClientLatency().With("solve").Observe(0.01)
	_, s := ob.Tracer.Start(context.Background(), "solve")
	s.End()

	ln, err := Serve("127.0.0.1:0", ob.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "rpc_client_latency_seconds_bucket") {
		t.Errorf("/metrics missing latency histogram:\n%s", metrics)
	}
	traces := get("/debug/traces?n=5")
	if !strings.Contains(traces, s.Context().TraceID.String()) {
		t.Errorf("/debug/traces missing trace id:\n%s", traces)
	}
}

func TestStartSpanUsesParentTracer(t *testing.T) {
	tr := NewTracer("svc", WithRing(NewRing(8)))
	ctx, root := tr.Start(context.Background(), "root")
	_, child := StartSpan(ctx, "lib-span")
	child.End()
	root.End()
	if tr.Ring().Len() != 2 {
		t.Fatalf("library span did not land in the parent's ring (len=%d)", tr.Ring().Len())
	}
}

// TestStartSpanIsFreeWhenNobodyRecords: with no parent span in ctx and no
// default tracer installed, StartSpan hands back its ctx and a nil span
// without allocating; an installed default tracer gets the root, and
// SetDefault(nil) takes it away again.
func TestStartSpanIsFreeWhenNobodyRecords(t *testing.T) {
	if Default() != nil {
		t.Fatal("a default tracer is installed at start-up")
	}
	ctx := context.Background()
	got, span := StartSpan(ctx, "lib-span", String("k", "v"))
	if span != nil || got != ctx {
		t.Fatalf("StartSpan with nobody recording = (%v, %v), want its ctx and nil", got, span)
	}
	span.SetAttr("k", "v") // nil-safe like every other method
	span.EndErr(errors.New("x"))
	if n := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(ctx, "lib-span", String("op", "bump"), String("name", "svc"))
		s.End()
	}); n != 0 {
		t.Fatalf("unobserved StartSpan allocates %v times", n)
	}

	tr := NewTracer("fallback", WithRing(NewRing(8)))
	SetDefault(tr)
	defer SetDefault(nil)
	_, root := StartSpan(ctx, "root")
	root.End()
	if root == nil || tr.Ring().Len() != 1 {
		t.Fatalf("default tracer did not record the root (span %v, ring %d)", root, tr.Ring().Len())
	}
	SetDefault(nil)
	if _, s := StartSpan(ctx, "after"); s != nil || Default() != nil {
		t.Fatal("SetDefault(nil) did not remove the default tracer")
	}
}

func TestSpanDuration(t *testing.T) {
	tr := NewTracer("t")
	_, s := tr.Start(context.Background(), "x")
	time.Sleep(time.Millisecond)
	s.End()
	if s.Duration() <= 0 {
		t.Fatal("non-positive duration")
	}
}
