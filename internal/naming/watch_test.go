package naming

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orb"
)

// watchNS is one in-process naming replica with a push hub. The hub is
// NOT started: tests call Flush directly so delivery is deterministic.
type watchNS struct {
	o   *orb.ORB
	reg *Registry
	ref orb.ObjectRef
	hub *Hub
	srv *Servant
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func startWatchNS(t *testing.T, sel Selector) *watchNS {
	t.Helper()
	o := orb.New(orb.Options{Name: "ns-watch"})
	t.Cleanup(o.Shutdown)
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	srv := NewServant(reg, sel)
	hub := NewHub(o, reg, HubOptions{Logger: quietLogger(), PushTimeout: time.Second})
	srv.SetHub(hub)
	ref := a.Activate(DefaultKey, srv)
	return &watchNS{o: o, reg: reg, ref: ref, hub: hub, srv: srv}
}

// newTestCache builds a GroupCache on its own client ORB, subscribing
// through ns. The refresh loop is disabled: only pushes (and explicit
// resubscription) may update the cache.
func newTestCache(t *testing.T, ns WatchBinder, opts GroupCacheOptions) *GroupCache {
	t.Helper()
	o := clientORB(t)
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Refresh == 0 {
		opts.Refresh = -1
	}
	c := NewGroupCache(a, ns, opts)
	t.Cleanup(c.Close)
	return c
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGroupRefServedFromPushes is the tentpole scenario in miniature:
// after the single subscribing watch call, member death, whole-group
// death and recovery are all observed through pushes — the nameserver
// sees zero resolve requests and exactly one watch request throughout.
func TestGroupRefServedFromPushes(t *testing.T) {
	w := startWatchNS(t, nil)
	co := clientORB(t)
	c := NewClient(co, w.ref)
	cache := newTestCache(t, c, GroupCacheOptions{})
	name := NewName("workers")
	refA := testRef("hA:1", "a")
	refB := testRef("hB:1", "b")
	ctx := context.Background()

	if err := w.reg.BindOffer(name, Offer{Ref: refA, Host: "hA"}); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.BindOffer(name, Offer{Ref: refB, Host: "hB"}); err != nil {
		t.Fatal(err)
	}

	g := cache.Group(name, SpreadRoundRobin)
	seen := map[orb.ObjectRef]int{}
	for i := 0; i < 6; i++ {
		ref, err := g.Pick(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[ref]++
	}
	if seen[refA] == 0 || seen[refB] == 0 {
		t.Fatalf("round-robin did not reach both members: %v", seen)
	}

	// Member death: the unbind is pushed; picks avoid the dead member
	// with no further naming traffic.
	if err := w.reg.UnbindOffer(name, refA); err != nil {
		t.Fatal(err)
	}
	w.hub.Flush()
	waitUntil(t, "member removal push", func() bool { return len(cache.Members(name)) == 1 })
	for i := 0; i < 4; i++ {
		ref, err := g.Pick(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ref != refB {
			t.Fatalf("picked dead member %v", ref)
		}
	}

	// Whole-group death: picks fail locally (NotFound), not with a
	// resolve storm.
	if err := w.reg.UnbindOffer(name, refB); err != nil {
		t.Fatal(err)
	}
	w.hub.Flush()
	waitUntil(t, "empty membership push", func() bool { return len(cache.Members(name)) == 0 })
	if _, err := g.Pick(ctx); !orb.IsUserException(err, ExNotFound) {
		t.Fatalf("empty group: want NotFound, got %v", err)
	}

	// Recovery: the re-bind is pushed and picks succeed again.
	if err := w.reg.BindOffer(name, Offer{Ref: refA, Host: "hA"}); err != nil {
		t.Fatal(err)
	}
	w.hub.Flush()
	waitUntil(t, "re-bind push", func() bool { return len(cache.Members(name)) == 1 })
	if ref, err := g.Pick(ctx); err != nil || ref != refA {
		t.Fatalf("after re-bind: got %v, %v", ref, err)
	}

	if n := w.srv.Resolves(); n != 0 {
		t.Fatalf("nameserver served %d resolves; pushes should have kept this at 0", n)
	}
	if n := w.srv.WatchRequests(); n != 1 {
		t.Fatalf("nameserver served %d watch requests, want exactly 1", n)
	}
	if w.hub.Pushed() < 3 {
		t.Fatalf("hub pushed %d updates, want >= 3", w.hub.Pushed())
	}
}

// TestWatchEpochGuardRace races binds, lease expiries and re-binds
// against concurrent flushes of the push channel and checks that the
// client's epoch guard never lets older membership overwrite newer: the
// cached epoch is monotone and the final view converges to the
// registry's. Run with -race.
func TestWatchEpochGuardRace(t *testing.T) {
	w := startWatchNS(t, nil)
	co := clientORB(t)
	c := NewClient(co, w.ref)

	// Deterministic registry clock the expiry goroutine can advance.
	base := time.Now()
	var offset atomic.Int64
	w.reg.SetClock(func() time.Time { return base.Add(time.Duration(offset.Load())) })

	var appliedMu sync.Mutex
	var appliedEpochs []uint64
	cache := newTestCache(t, c, GroupCacheOptions{
		OnApply: func(_ Name, epoch uint64, _ int) {
			appliedMu.Lock()
			appliedEpochs = append(appliedEpochs, epoch)
			appliedMu.Unlock()
		},
	})
	name := NewName("racy")
	refA := testRef("hA:1", "a")
	refB := testRef("hB:1", "b")
	if err := w.reg.BindOffer(name, Offer{Ref: refA, Host: "hA"}); err != nil {
		t.Fatal(err)
	}
	g := cache.Group(name, SpreadRoundRobin)
	if _, err := g.Pick(context.Background()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var mutators, flushers sync.WaitGroup
	// Mutator 1: bind/unbind a plain member.
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for i := 0; i < 200; i++ {
			_ = w.reg.BindOffer(name, Offer{Ref: refB, Host: "hB"})
			_ = w.reg.UnbindOffer(name, refB)
		}
	}()
	// Mutator 2: bind a leased member, lapse it, re-bind it.
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		leased := testRef("hC:1", "c")
		for i := 0; i < 200; i++ {
			_ = w.reg.BindOffer(name, Offer{Ref: leased, Host: "hC", LeaseTTL: time.Millisecond})
			offset.Add(int64(2 * time.Millisecond))
			w.reg.ExpireOffers()
		}
	}()
	// Two racing flushers standing in for the hub worker plus a
	// concurrent operator-triggered flush.
	for i := 0; i < 2; i++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w.hub.Flush()
				}
			}
		}()
	}
	// Monitor: the cached epoch must never move backwards.
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := cache.Epoch(name)
			if e < prev {
				t.Errorf("cache epoch moved backwards: %d -> %d", prev, e)
				return
			}
			prev = e
		}
	}()

	done := make(chan struct{})
	go func() { mutators.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("race workload did not finish")
	}
	close(stop)
	flushers.Wait()
	<-monitorDone

	// Settle on a final state and converge.
	if err := w.reg.BindOffer(name, Offer{Ref: refB, Host: "hB"}); err != nil {
		t.Fatal(err)
	}
	wantLeases, wantEpoch := w.reg.WatchView(name)
	waitUntil(t, "final convergence", func() bool {
		w.hub.Flush()
		return cache.Epoch(name) >= wantEpoch
	})
	got := cache.Members(name)
	if len(got) != len(wantLeases) {
		t.Fatalf("converged membership has %d members, registry has %d", len(got), len(wantLeases))
	}

	appliedMu.Lock()
	defer appliedMu.Unlock()
	if len(appliedEpochs) == 0 {
		t.Fatal("no membership updates were applied")
	}
	// OnApply runs outside the cache lock, so observation order can be
	// perturbed; the guard's invariant is that the held epoch equals the
	// maximum ever applied.
	var max uint64
	for _, e := range appliedEpochs {
		if e > max {
			max = e
		}
	}
	if held := cache.Epoch(name); held != max {
		t.Fatalf("held epoch %d != max applied epoch %d", held, max)
	}
}

// TestHubDropsUnreachableWatcher: a watcher whose callback cannot be
// reached is evicted after maxPushFailures consecutive push failures.
func TestHubDropsUnreachableWatcher(t *testing.T) {
	w := startWatchNS(t, nil)
	name := NewName("gone")
	if err := w.reg.BindOffer(name, Offer{Ref: testRef("hA:1", "a"), Host: "hA"}); err != nil {
		t.Fatal(err)
	}
	// 127.0.0.1:1 refuses connections immediately.
	dead := testRef("127.0.0.1:1", "listener")
	w.hub.Watch(name, dead, 0)
	if w.hub.Watchers() != 1 {
		t.Fatalf("watchers = %d, want 1", w.hub.Watchers())
	}
	for i := 0; i < 3; i++ {
		w.hub.Invalidate(name)
		w.hub.Flush()
	}
	if w.hub.Watchers() != 0 {
		t.Fatalf("unreachable watcher not dropped: %d watchers remain", w.hub.Watchers())
	}
	if w.hub.Dropped() == 0 {
		t.Fatal("dropped counter did not move")
	}
}

// TestResubscribeAfterFailover: when the HA client re-pins to a new
// naming replica, the cache re-watches there after a full-jitter backoff
// and keeps receiving pushes from the new replica.
func TestResubscribeAfterFailover(t *testing.T) {
	a := startWatchNS(t, nil)
	b := startWatchNS(t, nil)
	co := clientORB(t)
	ha, err := NewHAClient(co, []orb.ObjectRef{a.ref, b.ref}, HAOptions{
		PerTryTimeout: 500 * time.Millisecond,
		Breaker:       orb.BreakerOptions{Cooldown: 100 * time.Millisecond},
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}

	group := NewName("workers")
	probe := NewName("probe")
	member := testRef("hA:1", "m")
	for _, ns := range []*watchNS{a, b} {
		if err := ns.reg.BindOffer(group, Offer{Ref: member, Host: "hA"}); err != nil {
			t.Fatal(err)
		}
		if err := ns.reg.Bind(probe, testRef("hP:1", "p")); err != nil {
			t.Fatal(err)
		}
	}

	cache := newTestCache(t, ha, GroupCacheOptions{
		ResubscribeBackoff: orb.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, Jitter: 1},
	})
	ha.SetOnFailover(func(string) { cache.Resubscribe() })

	g := cache.Group(group, SpreadRoundRobin)
	ctx := context.Background()
	if _, err := g.Pick(ctx); err != nil {
		t.Fatal(err)
	}
	if n := a.srv.WatchRequests(); n != 1 {
		t.Fatalf("primary served %d watch requests, want 1", n)
	}

	// Kill the primary; the next HA call re-pins to b and fires the
	// failover hook, which resubscribes after jittered backoff.
	a.o.Shutdown()
	if _, err := ha.Resolve(ctx, probe); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "re-watch on new primary", func() bool {
		return b.srv.WatchRequests() >= 1 && cache.Resubscribes() >= 1
	})

	// The new replica's pushes now reach the cache.
	refB := testRef("hB:1", "n")
	if err := b.reg.BindOffer(group, Offer{Ref: refB, Host: "hB"}); err != nil {
		t.Fatal(err)
	}
	b.hub.Flush()
	waitUntil(t, "push from new primary", func() bool { return len(cache.Members(group)) == 2 })
}

// TestHAClientFlagsStaleDegradedServes (satellite 1): with the whole
// control plane down, a cached reference older than its lease TTL is
// still served — availability over freshness — but counted as stale
// rather than handed out silently.
func TestHAClientFlagsStaleDegradedServes(t *testing.T) {
	ns := startNS(t, nil)
	o := clientORB(t)

	base := time.Now()
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	ha, err := NewHAClient(o, []orb.ObjectRef{ns.ref}, HAOptions{
		PerTryTimeout: 500 * time.Millisecond,
		Breaker:       orb.BreakerOptions{Cooldown: 50 * time.Millisecond},
		Logger:        quietLogger(),
		Clock:         clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	name := NewName("leased")
	ref := testRef("h1:1", "a")
	const ttl = time.Hour
	if err := ha.BindOfferLease(ctx, name, ref, "h1", ttl); err != nil {
		t.Fatal(err)
	}
	if got, err := ha.Resolve(ctx, name); err != nil || got != ref {
		t.Fatalf("resolve: %v, %v", got, err)
	}

	ns.o.Shutdown()

	// Within the TTL: degraded but not stale.
	if got, err := ha.Resolve(ctx, name); err != nil || got != ref {
		t.Fatalf("degraded resolve: %v, %v", got, err)
	}
	st := ha.Stats()
	if st.DegradedServes != 1 || st.StaleServes != 0 {
		t.Fatalf("within TTL: degraded=%d stale=%d, want 1/0", st.DegradedServes, st.StaleServes)
	}

	// Past the TTL: still served, but flagged.
	offset.Store(int64(2 * ttl))
	if got, err := ha.Resolve(ctx, name); err != nil || got != ref {
		t.Fatalf("stale degraded resolve: %v, %v", got, err)
	}
	st = ha.Stats()
	if st.StaleServes != 1 {
		t.Fatalf("past TTL: stale serves = %d, want 1", st.StaleServes)
	}
}
