package orb

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// ctxServant observes its request context: "block" parks until the context
// is cancelled (or the test releases it), "fast" just counts dispatches.
type ctxServant struct {
	started  chan struct{}
	release  chan struct{}
	observed chan error
	fast     atomic.Int64
}

func newCtxServant() *ctxServant {
	return &ctxServant{
		started:  make(chan struct{}, 4),
		release:  make(chan struct{}),
		observed: make(chan error, 4),
	}
}

func (s *ctxServant) TypeID() string { return "IDL:repro/CtxProbe:1.0" }

func (s *ctxServant) Invoke(sctx *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "block":
		s.started <- struct{}{}
		ctx := sctx.Context()
		select {
		case <-ctx.Done():
			s.observed <- ctx.Err()
		case <-s.release:
			s.observed <- nil
		case <-time.After(5 * time.Second):
			s.observed <- errors.New("servant never saw cancellation")
		}
		return nil
	case "fast":
		s.fast.Add(1)
		return nil
	default:
		return BadOperation(op)
	}
}

func newCtxPair(t *testing.T, opts Options) (*ORB, *Adapter, ObjectRef, *ctxServant) {
	t.Helper()
	o := New(opts)
	t.Cleanup(o.Shutdown)
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := newCtxServant()
	ref := a.Activate("probe", sv)
	return o, a, ref, sv
}

func waitStats(t *testing.T, o *ORB, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := o.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition never met: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelMidCallPropagatesToServant is the end-to-end cancellation
// path: the client cancels mid-call, a MsgCancelRequest crosses the wire,
// the servant observes ctx.Done(), and the in-flight gauge drains to zero.
func TestCancelMidCallPropagatesToServant(t *testing.T) {
	o, _, ref, sv := newCtxPair(t, Options{Name: "cancel-e2e"})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- o.Call(ctx, ref, "block", nil, nil) }()
	<-sv.started
	cancel()

	if err := <-errc; !IsSystemException(err, ExCancelled) {
		t.Fatalf("client err = %v, want CANCELLED", err)
	}
	if obs := <-sv.observed; obs != context.Canceled {
		t.Fatalf("servant observed %v, want context.Canceled", obs)
	}
	st := waitStats(t, o, func(st Stats) bool {
		return st.InFlight == 0 && st.CancelsSent >= 1 && st.CancelsReceived >= 1
	})
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after cancellation", st.InFlight)
	}
}

// expiredDeadlineStamper forges an already-expired SCDeadline on outgoing
// requests, simulating a request that spent its whole budget in transit.
type expiredDeadlineStamper struct{}

func (expiredDeadlineStamper) RequestSent(ctx context.Context, m *giop.Message) context.Context {
	if m.Type == giop.MsgRequest {
		m.SetContext(giop.SCDeadline, giop.EncodeDeadline(0))
	}
	return ctx
}
func (expiredDeadlineStamper) ReplyReceived(context.Context, *giop.Message, *giop.Message, error) {}
func (expiredDeadlineStamper) DispatchStart(ctx context.Context, _ *giop.Message) context.Context {
	return ctx
}
func (expiredDeadlineStamper) DispatchEnd(context.Context, *giop.Message, *giop.Message) {}

// TestExpiredRequestShedBeforeDispatch proves deadline-aware admission: a
// request whose propagated deadline has already expired on arrival is
// answered with TIMEOUT and the servant is never invoked.
func TestExpiredRequestShedBeforeDispatch(t *testing.T) {
	o, _, ref, sv := newCtxPair(t, Options{
		Name:             "shed",
		CallInterceptors: []CallInterceptor{expiredDeadlineStamper{}},
	})

	err := o.Call(context.Background(), ref, "fast", nil, nil)
	if !IsSystemException(err, ExTimeout) {
		t.Fatalf("err = %v, want TIMEOUT", err)
	}
	if n := sv.fast.Load(); n != 0 {
		t.Fatalf("servant invoked %d times despite expired deadline", n)
	}
	if st := o.Stats(); st.RequestsShed < 1 {
		t.Fatalf("RequestsShed = %d, want >= 1", st.RequestsShed)
	}
}

// TestDeadlineExpiresWhileQueuedOnBusyServer covers the paper-style busy
// case: with a single worker slot held by a long call, a 50ms-deadline
// request times out while queued and is shed without touching the servant.
func TestDeadlineExpiresWhileQueuedOnBusyServer(t *testing.T) {
	o, _, ref, sv := newCtxPair(t, Options{Name: "busy", WorkerPool: 1})

	blockErr := make(chan error, 1)
	go func() { blockErr <- o.Call(context.Background(), ref, "block", nil, nil) }()
	<-sv.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := o.Call(ctx, ref, "fast", nil, nil)
	if !IsSystemException(err, ExTimeout) {
		t.Fatalf("err = %v, want TIMEOUT", err)
	}
	// The client gave up at its own clock's 50 ms and said so on the wire.
	// Free the worker only once the server knows: its rebased deadline
	// timer may be a scheduling quantum behind on a busy host, and a
	// request dequeued in that gap is, as far as the server can tell,
	// still wanted.
	waitStats(t, o, func(st Stats) bool { return st.CancelsReceived >= 1 })

	close(sv.release)
	if err := <-blockErr; err != nil {
		t.Fatal(err)
	}
	<-sv.observed
	if n := sv.fast.Load(); n != 0 {
		t.Fatalf("servant invoked %d times despite expired deadline", n)
	}
	// The queued request dies either by its rebased deadline (RequestsShed)
	// or by the client's wire-level cancel racing it (CancelsReceived) —
	// both legitimate, and in neither case does the servant run.
	if st := o.Stats(); st.RequestsShed+st.CancelsReceived < 1 {
		t.Fatalf("no shed or cancel recorded: %+v", st)
	}
}

// TestNotifyFailurePaths covers oneway error reporting: nil references,
// already-terminated contexts, a shut-down ORB, and a dead peer must all
// surface as immediate local errors rather than silent drops or hangs.
func TestNotifyFailurePaths(t *testing.T) {
	server := New(Options{Name: "oneway-server"})
	a, err := server.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Activate("probe", newCtxServant())

	client := New(Options{Name: "oneway-client"})
	t.Cleanup(client.Shutdown)

	// Baseline: a oneway against a live server succeeds.
	if err := client.Notify(context.Background(), ref, "fast", nil); err != nil {
		t.Fatalf("live notify: %v", err)
	}

	// Nil reference.
	if err := client.Notify(context.Background(), ObjectRef{}, "fast", nil); !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("nil ref err = %v, want OBJECT_NOT_EXIST", err)
	}

	// Pre-cancelled context: rejected before touching the wire.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := client.Notify(cctx, ref, "fast", nil); !IsSystemException(err, ExCancelled) {
		t.Fatalf("cancelled ctx err = %v, want CANCELLED", err)
	}

	// Dead peer: shut the server down; the pooled connection dies and
	// redials fail, so notifies start erroring (the first write after
	// close may still land in the OS buffer, hence the retry loop).
	server.Shutdown()
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := client.Notify(context.Background(), ref, "fast", nil)
		if err != nil {
			if !IsSystemException(err, ExCommFailure) {
				t.Fatalf("dead peer err = %v, want COMM_FAILURE", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("notify never failed after server shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Shut-down ORB: local, immediate COMM_FAILURE.
	client.Shutdown()
	if err := client.Notify(context.Background(), ref, "fast", nil); !IsSystemException(err, ExCommFailure) {
		t.Fatalf("shut-down orb err = %v, want COMM_FAILURE", err)
	}
}

// TestCancelRacesReplyDelivery hammers roundTrip with deadlines straddling
// the loopback round-trip time so cancellation and reply delivery race in
// both orders. Every call must resolve to success or TIMEOUT — never a
// hang, panic, or mismatched reply — and the pool must stay usable.
func TestCancelRacesReplyDelivery(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{Name: "race"})

	// Warm the connection and estimate the round-trip time.
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := callAdd(o, ref, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	rtt := time.Since(start) / 10

	for i := 0; i < 200; i++ {
		// Sweep timeouts from well under to well over the RTT.
		timeout := rtt * time.Duration(i%20) / 10
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		sum, err := callAdd2(ctx, o, ref, 20, 22)
		cancel()
		switch {
		case err == nil:
			if sum != 42 {
				t.Fatalf("iteration %d: sum = %d", i, sum)
			}
		case IsSystemException(err, ExTimeout) || IsSystemException(err, ExCancelled):
			// Abandoned before the reply won the race; fine.
		default:
			t.Fatalf("iteration %d: err = %v", i, err)
		}
	}

	// The connection pool must have survived the abandoned calls.
	sum, err := callAdd(o, ref, 40, 2)
	if err != nil || sum != 42 {
		t.Fatalf("post-race call: sum = %d, err = %v", sum, err)
	}
	st := waitStats(t, o, func(st Stats) bool { return st.InFlight == 0 })
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after races", st.InFlight)
	}
}

func callAdd2(ctx context.Context, o *ORB, ref ObjectRef, a, b int64) (int64, error) {
	var sum int64
	err := o.Call(ctx, ref, "add",
		func(e *cdr.Encoder) { e.PutInt64(a); e.PutInt64(b) },
		func(d *cdr.Decoder) error { sum = d.GetInt64(); return d.Err() })
	return sum, err
}
