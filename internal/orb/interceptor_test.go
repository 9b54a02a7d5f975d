// Interceptor-chain tests from outside the package: obs.Observer plugged
// into the ORB's CallInterceptor seam, with faultnet injecting a
// connection reset mid-sequence. They prove the tracing contract end to
// end — span parentage survives a crash, and the recovery machinery
// (COMM_FAILURE, re-resolve, state restore, replay) lands on the SAME
// trace as the original call.
package orb_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/faultnet"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

// The structural interface match between obs and orb is load-bearing:
// obs cannot import orb, so nothing inside either package proves the
// Observer still satisfies the interceptor contract. This does.
var _ orb.CallInterceptor = (*obs.Observer)(nil)

// tracedCounter is a checkpointable stateful servant: inc(by) returns
// the new value.
type tracedCounter struct {
	mu    sync.Mutex
	value int64
}

func (c *tracedCounter) TypeID() string { return "IDL:repro/Counter:1.0" }

func (c *tracedCounter) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "inc":
		by := in.GetInt64()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		c.value += by
		out.PutInt64(c.value)
		return nil
	default:
		return orb.BadOperation(op)
	}
}

func (c *tracedCounter) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cdr.NewEncoder(8)
	e.PutInt64(c.value)
	return e.Bytes(), nil
}

func (c *tracedCounter) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	v := d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.value = v
	c.mu.Unlock()
	return nil
}

// seqResolver hands out refs in order, sticking on the last: first
// resolve binds to the doomed server, recovery resolves the survivor.
type seqResolver struct {
	mu   sync.Mutex
	refs []orb.ObjectRef
	next int
}

func (r *seqResolver) Resolve(ctx context.Context, name naming.Name) (orb.ObjectRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref := r.refs[r.next]
	if r.next < len(r.refs)-1 {
		r.next++
	}
	return ref, nil
}

// attr is single-value attribute access ("" when absent).
func attr(s *obs.Span, key string) string {
	v, _ := s.Attr(key)
	return v
}

// findSpan returns the first ring span matching pred.
// hasEvent reports whether the span recorded an event by that name.
func hasEvent(s *obs.Span, name string) bool {
	_, ok := s.Event(name)
	return ok
}

func findSpan(spans []*obs.Span, pred func(*obs.Span) bool) *obs.Span {
	for _, s := range spans {
		if pred(s) {
			return s
		}
	}
	return nil
}

// TestObserverTracesSurviveResetAndReplay is the crash-recovery tracing
// contract: kill the connection under a traced ft call with faultnet,
// and assert the COMM_FAILURE, re-resolve, checkpoint restore and
// replay all appear as spans/events of the ORIGINAL trace, with the
// server-side replay span parented to the client replay span.
func TestObserverTracesSurviveResetAndReplay(t *testing.T) {
	ob := obs.NewObserver("test")
	chaos := faultnet.New(1)

	newWorker := func(name string) (*orb.ORB, orb.ObjectRef, *tracedCounter) {
		w := orb.New(orb.Options{Name: name, CallInterceptors: []orb.CallInterceptor{ob}})
		t.Cleanup(w.Shutdown)
		ad, err := w.NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctr := &tracedCounter{}
		return w, ad.Activate("ctr", ft.Wrap(ctr)), ctr
	}
	_, ref1, _ := newWorker("w1")
	_, ref2, ctr2 := newWorker("w2")

	client := orb.New(orb.Options{
		Name:             "client",
		Dialer:           chaos,
		CallInterceptors: []orb.CallInterceptor{ob},
	})
	t.Cleanup(client.Shutdown)

	resolver := &seqResolver{refs: []orb.ObjectRef{ref1, ref2}}
	proxy, err := ft.NewProxy(context.Background(), client, naming.NewName("counter"),
		resolver, ft.NewMemStore(), ft.Policy{CheckpointEvery: 1, MaxRecoveries: 3})
	if err != nil {
		t.Fatal(err)
	}

	inc := func(ctx context.Context, by int64) (int64, error) {
		var v int64
		err := proxy.Call(ctx, "inc",
			func(e *cdr.Encoder) { e.PutInt64(by) },
			func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() })
		return v, err
	}

	ctx, root := ob.Tracer.Start(context.Background(), "test.root")

	// Call 1 succeeds on w1 and checkpoints value=10 into the store.
	if v, err := inc(ctx, 10); err != nil || v != 10 {
		t.Fatalf("first inc = %d, %v", v, err)
	}

	// Tear down every byte to w1 from now on: the pooled connection
	// observes the rule on its next write and resets mid-call.
	chaos.SetRule(faultnet.Rule{Route: ref1.Addr, ResetProb: 1})

	// Call 2 hits COMM_FAILURE on w1, recovers onto w2 (restore 10),
	// replays inc(5) → 15.
	v, err := inc(ctx, 5)
	if err != nil {
		t.Fatalf("inc after reset: %v", err)
	}
	if v != 15 {
		t.Fatalf("value after recovery = %d, want 15 (checkpoint not restored?)", v)
	}
	if got := ctr2.value; got != 15 {
		t.Fatalf("survivor state = %d, want 15", got)
	}
	if c := chaos.Counters(); c.Resets == 0 {
		t.Fatal("chaos injected no reset — the failure path never ran")
	}
	root.End()

	// The server-side replay span ends asynchronously after the reply is
	// on the wire; give it a moment to land in the ring. Call 1 left a
	// successful server inc span on this trace too, so the replayed one
	// is identified by its parent chain: server inc → client inc →
	// "replay" span.
	traceID := root.Context().TraceID
	var spans []*obs.Span
	var byID map[obs.SpanID]*obs.Span
	var serverInc *obs.Span
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans = nil
		for _, s := range ob.Ring.Spans() {
			if s.Context().TraceID == traceID {
				spans = append(spans, s)
			}
		}
		byID = make(map[obs.SpanID]*obs.Span, len(spans))
		for _, s := range spans {
			byID[s.Context().SpanID] = s
		}
		serverInc = findSpan(spans, func(s *obs.Span) bool {
			if s.Name() != "inc" || attr(s, "side") != "server" || s.Err() != "" {
				return false
			}
			parent := byID[s.Parent()]
			return parent != nil && byID[parent.Parent()] != nil &&
				byID[parent.Parent()].Name() == "replay"
		})
		if serverInc != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the root trace")
	}

	failed := findSpan(spans, func(s *obs.Span) bool {
		return s.Name() == "ft.invoke" && hasEvent(s, "comm_failure")
	})
	if failed == nil {
		t.Fatal("no ft.invoke span carries the comm_failure event")
	}
	if failed.Parent() != root.Context().SpanID {
		t.Errorf("failed ft.invoke parent = %v, want root %v", failed.Parent(), root.Context().SpanID)
	}

	recover := findSpan(spans, func(s *obs.Span) bool { return s.Name() == "ft.recover" })
	if recover == nil {
		t.Fatal("no ft.recover span on the trace")
	}
	resolve := findSpan(spans, func(s *obs.Span) bool { return s.Name() == "ft.resolve" })
	if resolve == nil {
		t.Fatal("no ft.resolve span on the trace")
	}
	if got := attr(resolve, "addr"); got != ref2.Addr {
		t.Errorf("ft.resolve addr = %q, want survivor %q", got, ref2.Addr)
	}
	restore := findSpan(spans, func(s *obs.Span) bool { return s.Name() == "ft.restore" })
	if restore == nil {
		t.Fatal("no ft.restore span on the trace")
	}

	replay := findSpan(spans, func(s *obs.Span) bool { return s.Name() == "replay" })
	if replay == nil {
		t.Fatal("no replay span on the trace")
	}
	if attr(replay, "op") != "inc" {
		t.Errorf("replay op = %q, want inc", attr(replay, "op"))
	}

	// Parentage chain across the process boundary: server replay span →
	// client replay span → "replay" → ft.invoke → root.
	if serverInc == nil {
		t.Fatal("no server-side inc span parented under the replay span")
	}
	clientInc := byID[serverInc.Parent()]
	if clientInc == nil || attr(clientInc, "side") != "client" || clientInc.Name() != "inc" {
		t.Fatalf("server inc span's parent is not the client inc span (got %+v)", clientInc)
	}
	if clientInc.Parent() != replay.Context().SpanID {
		t.Errorf("replayed client inc parent = %v, want replay span %v",
			clientInc.Parent(), replay.Context().SpanID)
	}

	// The first (failed) client attempt is on the same trace too, marked
	// with the injected failure.
	failedAttempt := findSpan(spans, func(s *obs.Span) bool {
		return s.Name() == "inc" && attr(s, "side") == "client" && s.Err() != ""
	})
	if failedAttempt == nil {
		t.Error("the failed client attempt left no span on the trace")
	} else if !strings.Contains(failedAttempt.Err(), "reset") &&
		attr(failedAttempt, "error_kind") != "COMM_FAILURE" {
		t.Errorf("failed attempt error = %q kind=%q, expected an injected reset",
			failedAttempt.Err(), attr(failedAttempt, "error_kind"))
	}

	// Satellite counters: the client ORB recorded the retry and the
	// successful recovery.
	st := client.Stats()
	if st.RetriesAttempted == 0 {
		t.Errorf("RetriesAttempted = 0, want > 0")
	}
	if st.RecoveriesSucceeded == 0 {
		t.Errorf("RecoveriesSucceeded = 0, want > 0")
	}

	// And the metrics registry exported the failure by kind.
	var b strings.Builder
	ob.Registry.WritePrometheus(&b)
	if out := b.String(); !strings.Contains(out, `rpc_errors_total{side="client",method="inc"`) {
		t.Errorf("registry missing client inc error counter:\n%s", out)
	}
}
