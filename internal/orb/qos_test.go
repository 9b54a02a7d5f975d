package orb

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTenantBucketsConcurrentAdmission hammers one tenant's bucket from
// many goroutines at a frozen instant (no refill can hide over-admission)
// and then at exactly +1s (refill must credit exactly rate tokens). Run
// under -race this also exercises the bucket table's locking.
func TestTenantBucketsConcurrentAdmission(t *testing.T) {
	tb := newTenantBuckets(50, 100)
	base := time.Now()

	slam := func(now time.Time) int64 {
		var admitted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ok, retryAfter := tb.admit("acme", now)
					if ok {
						admitted.Add(1)
					} else if retryAfter <= 0 {
						t.Error("rejected admit returned a non-positive retry-after hint")
					}
				}
			}()
		}
		wg.Wait()
		return admitted.Load()
	}

	// 400 concurrent attempts at one instant: exactly the burst admits.
	if n := slam(base); n != 100 {
		t.Fatalf("admitted %d of 400 concurrent requests at one instant, want exactly burst (100)", n)
	}
	// One second later the bucket holds exactly rate (50) new tokens.
	if n := slam(base.Add(time.Second)); n != 50 {
		t.Fatalf("admitted %d after 1s refill, want exactly rate (50)", n)
	}
	// Tenants do not share buckets.
	if ok, _ := tb.admit("other", base); !ok {
		t.Fatal("fresh tenant rejected while another tenant's bucket is empty")
	}
	if n := tb.size(); n != 2 {
		t.Fatalf("bucket table size = %d, want 2", n)
	}
}

// TestStrictPriorityAtSaturation drives the pool (no workers — the test
// dequeues by hand) past the ¾-occupancy saturation threshold and keeps
// it there: as long as critical work is queued, nothing else may be
// dispatched and the batch backlog must not move.
func TestStrictPriorityAtSaturation(t *testing.T) {
	p := newWorkerPool(0, 8, QoSOptions{}) // batch queue cap = 8/4 = 2
	defer p.stop()
	mk := func(c Priority) *dispatchTask {
		return &dispatchTask{class: c, rctx: context.Background()}
	}
	for _, c := range []Priority{ClassBatch, ClassBatch, ClassNormal, ClassNormal, ClassCritical, ClassCritical} {
		if got := p.enqueue(mk(c)); got != admitQueued {
			t.Fatalf("enqueue(%v) = %v, want admitQueued", c, got)
		}
	}
	// queued = 6 ≥ ¾·8: saturated. Top the queue back up with a fresh
	// critical task after every pick so saturation (and queued critical
	// work) persists across the whole loop.
	for i := 0; i < 32; i++ {
		got := p.next()
		if got.class != ClassCritical {
			t.Fatalf("pick %d dispatched class %v while critical was queued at saturation", i, got.class)
		}
		if n := p.classDepth(ClassBatch); n != 2 {
			t.Fatalf("pick %d: batch depth = %d, want the backlog untouched (2)", i, n)
		}
		if got := p.enqueue(mk(ClassCritical)); got != admitQueued {
			t.Fatalf("refill enqueue = %v, want admitQueued", got)
		}
	}
	// Stop refilling: the backlog drains, batch included.
	for i := 0; i < 6; i++ {
		if p.next() == nil {
			t.Fatalf("drain pick %d returned nil with work queued", i)
		}
	}
	if n := p.depth(); n != 0 {
		t.Fatalf("depth after drain = %d, want 0", n)
	}
}

// TestWeightedDequeueServesBatch checks the comfortable regime: below
// saturation the weighted round-robin must hand every class a slot within
// one credit cycle — sustained critical traffic cannot starve batch.
func TestWeightedDequeueServesBatch(t *testing.T) {
	p := newWorkerPool(0, 256, QoSOptions{}) // weights 16/4/1, far below saturation
	defer p.stop()
	for i := 0; i < 30; i++ {
		p.enqueue(&dispatchTask{class: ClassCritical, rctx: context.Background()})
	}
	for i := 0; i < 10; i++ {
		p.enqueue(&dispatchTask{class: ClassNormal, rctx: context.Background()})
	}
	for i := 0; i < 5; i++ {
		p.enqueue(&dispatchTask{class: ClassBatch, rctx: context.Background()})
	}
	served := map[Priority]int{}
	for i := 0; i < 16+4+1; i++ {
		served[p.next().class]++
	}
	if served[ClassBatch] == 0 || served[ClassNormal] == 0 {
		t.Fatalf("one full credit cycle served %v; want every class represented", served)
	}
	if served[ClassCritical] < served[ClassNormal] || served[ClassNormal] < served[ClassBatch] {
		t.Fatalf("credit cycle shares not priority-ordered: %v", served)
	}
}

// TestEnqueueBlockedEscapes fills the queue and checks both exits from
// the blocking path: a batch task fast-rejects, a normal task parks and
// escapes with admitCtxDead when its request context dies, and a parked
// task is admitted when a slot frees.
func TestEnqueueBlockedEscapes(t *testing.T) {
	p := newWorkerPool(0, 4, QoSOptions{BatchShare: 1})
	defer p.stop()
	for i := 0; i < 4; i++ {
		if got := p.enqueue(&dispatchTask{class: ClassNormal, rctx: context.Background()}); got != admitQueued {
			t.Fatalf("fill enqueue = %v", got)
		}
	}
	if got := p.enqueue(&dispatchTask{class: ClassBatch, rctx: context.Background()}); got != admitRejected {
		t.Fatalf("batch enqueue on full queue = %v, want admitRejected", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := make(chan admitResult, 1)
	go func() { res <- p.enqueue(&dispatchTask{class: ClassNormal, rctx: ctx}) }()
	select {
	case r := <-res:
		t.Fatalf("enqueue on full queue returned %v immediately, want it to block", r)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if r := <-res; r != admitCtxDead {
		t.Fatalf("blocked enqueue after ctx death = %v, want admitCtxDead", r)
	}

	go func() { res <- p.enqueue(&dispatchTask{class: ClassNormal, rctx: context.Background()}) }()
	p.next() // free one slot; the parked enqueuer must take it
	if r := <-res; r != admitQueued {
		t.Fatalf("blocked enqueue after a slot freed = %v, want admitQueued", r)
	}
}

// waitMode polls until the ORB reaches mode (or fails the test).
func waitMode(t *testing.T, o *ORB, mode DegradeMode) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for o.DegradeMode() != mode {
		if time.Now().After(deadline) {
			t.Fatalf("mode = %v, want %v", o.DegradeMode(), mode)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDegradeControllerTransitions feeds the controller a synthetic load
// signal and checks the whole ladder: one mode per debounced step on the
// way down, one per step on the way back, with the health probe
// tracking each transition.
func TestDegradeControllerTransitions(t *testing.T) {
	o := New(Options{Name: "degrade-ctl"})
	t.Cleanup(o.Shutdown)

	var score atomic.Uint64 // math.Float64bits of the synthetic load score
	setScore := func(f float64) { score.Store(math.Float64bits(f)) }
	var mu sync.Mutex
	var seen []DegradeMode
	o.OnDegrade(func(m DegradeMode) {
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
	})

	setScore(0.95)
	stop := o.StartDegradeController(DegradeConfig{
		High: 0.8, Low: 0.3, Interval: 2 * time.Millisecond, HoldTicks: 2,
		Source: func() float64 { return math.Float64frombits(score.Load()) },
	})
	defer stop()

	waitMode(t, o, ModeCriticalOnly)
	if err := o.QoSHealthProbe(); err == nil {
		t.Fatal("QoSHealthProbe healthy while critical-only")
	}

	setScore(0.1)
	waitMode(t, o, ModeNormal)
	if err := o.QoSHealthProbe(); err != nil {
		t.Fatalf("QoSHealthProbe at normal: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []DegradeMode{ModeDegraded, ModeCriticalOnly, ModeDegraded, ModeNormal}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want one step at a time: %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (full: %v)", i, seen[i], want[i], seen)
		}
	}
}

// TestBatchShedEndToEnd saturates a one-worker server with the batch
// queue capped at a single slot: surplus batch calls must come back as
// TRANSIENT with a retry-after hint (IsAdmissionShed), the shed counter
// must attribute them to queue_full, and the flight recorder must carry
// the class of every batch request it saw.
func TestBatchShedEndToEnd(t *testing.T) {
	srv := New(Options{Name: "shed-srv", WorkerPool: 1, DispatchQueueDepth: 4})
	t.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := newCtxServant()
	ref := a.Activate("probe", sv)
	fr := obs.NewFlightRecorder(256)
	srv.AttachFlightRecorder(fr)
	cli := New(Options{Name: "shed-cli"})
	t.Cleanup(cli.Shutdown)

	// Occupy the only worker so batch calls pile into their 1-slot queue.
	blockErr := make(chan error, 1)
	go func() { blockErr <- cli.Call(context.Background(), ref, "block", nil, nil) }()
	<-sv.started

	const flood = 8
	errs := make(chan error, flood)
	for i := 0; i < flood; i++ {
		go func() {
			errs <- cli.Call(context.Background(), ref, "fast", nil, nil, WithPriority(ClassBatch))
		}()
	}
	var shed int
	for i := 0; i < flood; i++ {
		err := <-errs
		if err == nil {
			continue
		}
		if !IsAdmissionShed(err) {
			t.Fatalf("flood call error = %v, want an admission shed (TRANSIENT + retry-after)", err)
		}
		if RetryAfterHint(err) <= 0 {
			t.Fatalf("shed error carries no retry-after hint: %v", err)
		}
		shed++
	}
	if shed == 0 {
		t.Fatal("no batch call was shed past a full 1-slot batch queue")
	}
	close(sv.release)
	if err := <-blockErr; err != nil {
		t.Fatalf("blocking call: %v", err)
	}
	if n := srv.AdmissionShed(ClassBatch, ShedQueueFull); n != uint64(shed) {
		t.Fatalf("AdmissionShed(batch, queue_full) = %d, want %d", n, shed)
	}
	// A request is recorded after its reply is written, so the last
	// caller can be back here before its record is in.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		classed := 0
		for _, r := range fr.Snapshot() {
			if r.Class == "batch" {
				classed++
			}
		}
		if classed >= flood {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder has %d batch-classed records, want >= %d", classed, flood)
		}
	}
}

// TestTenantThrottleEndToEnd runs a server with a 1 req/s per-tenant
// budget: the tenant's second normal-class call sheds with the exact
// time-to-next-token as its hint, while critical-class calls are exempt
// from the tenant bucket entirely.
func TestTenantThrottleEndToEnd(t *testing.T) {
	srv := New(Options{Name: "tenant-srv", QoS: QoSOptions{TenantRate: 1, TenantBurst: 1}})
	t.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Activate("probe", newCtxServant())
	cli := New(Options{Name: "tenant-cli"})
	t.Cleanup(cli.Shutdown)
	ctx := context.Background()

	if err := cli.Call(ctx, ref, "fast", nil, nil, WithTenant("acme")); err != nil {
		t.Fatalf("first call in budget: %v", err)
	}
	err = cli.Call(ctx, ref, "fast", nil, nil, WithTenant("acme"))
	if !IsAdmissionShed(err) {
		t.Fatalf("over-budget call error = %v, want an admission shed", err)
	}
	if ra := RetryAfterHint(err); ra <= 0 || ra > time.Second {
		t.Fatalf("retry-after hint = %v, want within (0, 1s]", ra)
	}
	// Critical never spends tenant tokens.
	if err := cli.Call(ctx, ref, "fast", nil, nil, WithTenant("acme"), WithPriority(ClassCritical)); err != nil {
		t.Fatalf("critical call hit the tenant throttle: %v", err)
	}
	if n := srv.AdmissionShed(ClassNormal, ShedTenantThrottle); n != 1 {
		t.Fatalf("AdmissionShed(normal, tenant_throttle) = %d, want 1", n)
	}
}

// TestDegradeGateClosesAdmission forces critical-only mode and checks the
// admission gate: normal-class calls shed (attributed to degraded_mode),
// critical calls pass, and lifting the mode reopens admission.
func TestDegradeGateClosesAdmission(t *testing.T) {
	srv := New(Options{Name: "gate-srv"})
	t.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Activate("probe", newCtxServant())
	cli := New(Options{Name: "gate-cli"})
	t.Cleanup(cli.Shutdown)
	ctx := context.Background()

	srv.SetDegradeMode(ModeCriticalOnly)
	if err := cli.Call(ctx, ref, "fast", nil, nil); !IsAdmissionShed(err) {
		t.Fatalf("normal call in critical-only mode = %v, want an admission shed", err)
	}
	if err := cli.Call(ctx, ref, "fast", nil, nil, WithPriority(ClassCritical)); err != nil {
		t.Fatalf("critical call in critical-only mode: %v", err)
	}
	if n := srv.AdmissionShed(ClassNormal, ShedDegradedMode); n != 1 {
		t.Fatalf("AdmissionShed(normal, degraded_mode) = %d, want 1", n)
	}
	srv.SetDegradeMode(ModeNormal)
	if err := cli.Call(ctx, ref, "fast", nil, nil); err != nil {
		t.Fatalf("normal call after mode lifted: %v", err)
	}
}
