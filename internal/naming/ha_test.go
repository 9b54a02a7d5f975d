package naming

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/orb"
)

// testNS is one in-process naming replica with its own ORB, killable
// independently of the client.
type testNS struct {
	o   *orb.ORB
	reg *Registry
	ref orb.ObjectRef
}

func startNS(t *testing.T, sel Selector) *testNS {
	t.Helper()
	o := orb.New(orb.Options{Name: "ns-replica"})
	t.Cleanup(o.Shutdown)
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	ref := a.Activate(DefaultKey, NewServant(reg, sel))
	return &testNS{o: o, reg: reg, ref: ref}
}

func clientORB(t *testing.T) *orb.ORB {
	t.Helper()
	o := orb.New(orb.Options{Name: "ns-client", CallTimeout: 2 * time.Second})
	t.Cleanup(o.Shutdown)
	return o
}

func TestLeaseRenewerKeepsOfferAlive(t *testing.T) {
	ns := startNS(t, nil)
	o := clientORB(t)
	c := NewClient(o, ns.ref)
	ctx := context.Background()
	name := NewName("svc")
	ref := testRef("h1:1", "a")

	const ttl = 300 * time.Millisecond
	if err := c.BindOfferLease(ctx, name, ref, "h1", ttl); err != nil {
		t.Fatal(err)
	}
	sw := NewSweeper(ns.reg, SweeperOptions{Period: 25 * time.Millisecond})
	sw.Start()
	defer sw.Stop()

	r := StartLeaseRenewer(c, name, ref, "h1", ttl)
	time.Sleep(4 * ttl)
	if offers, err := ns.reg.Offers(name); err != nil || len(offers) != 1 {
		r.Stop()
		t.Fatalf("offer lapsed despite renewer: %v, %v", offers, err)
	}
	if r.Renewals() == 0 {
		r.Stop()
		t.Fatal("renewer made no renewals")
	}
	r.Stop()

	// Without renewals the sweeper reaps the offer within ~TTL.
	deadline := time.Now().Add(10 * ttl)
	for {
		if _, err := ns.reg.Offers(name); orb.IsUserException(err, ExNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("offer never evicted after renewer stopped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sw.Evicted() == 0 {
		t.Fatal("sweeper eviction counter did not move")
	}
}

func TestLeaseRenewerRebindsAfterEviction(t *testing.T) {
	ns := startNS(t, nil)
	o := clientORB(t)
	c := NewClient(o, ns.ref)
	ctx := context.Background()
	name := NewName("svc")
	ref := testRef("h1:1", "a")

	const ttl = 300 * time.Millisecond
	if err := c.BindOfferLease(ctx, name, ref, "h1", ttl); err != nil {
		t.Fatal(err)
	}
	r := StartLeaseRenewer(c, name, ref, "h1", ttl)
	defer r.Stop()

	// Simulate an eviction (sweeper or operator): the renewer must notice
	// the NotFound and re-register.
	if err := ns.reg.UnbindOffer(name, ref); err != nil {
		t.Fatal(err)
	}
	// Poll the counter, not just the registry: the server-side bind is
	// visible before the renewer's RPC reply lands and bumps Rebinds.
	deadline := time.Now().Add(10 * ttl)
	for {
		offers, err := ns.reg.Offers(name)
		if err == nil && len(offers) == 1 && r.Rebinds() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("renewer never re-registered the evicted offer (offers %v, rebinds %d)",
				offers, r.Rebinds())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestReplicatorConvergesAndRespectsEpochs(t *testing.T) {
	a := startNS(t, nil)
	b := startNS(t, nil)
	o := clientORB(t)
	ctx := context.Background()
	name := NewName("svc")

	// Peer spec via @file, the lazy ref-file convention.
	dir := t.TempDir()
	refFile := filepath.Join(dir, "b.ref")
	repl := NewReplicator(o, a.reg, []string{"@" + refFile}, ReplicatorOptions{Period: 50 * time.Millisecond})

	if err := a.reg.BindOffer(name, Offer{Ref: testRef("h1:1", "x"), Host: "h1"}); err != nil {
		t.Fatal(err)
	}
	// First push fails: the ref file does not exist yet.
	repl.Step(ctx)
	if repl.Pushes() != 0 || repl.PushErrors() == 0 {
		t.Fatalf("push before ref file exists: pushes=%d errors=%d", repl.Pushes(), repl.PushErrors())
	}
	if err := os.WriteFile(refFile, []byte(b.ref.ToString()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	repl.Step(ctx)
	if repl.Pushes() != 1 {
		t.Fatalf("pushes = %d, want 1", repl.Pushes())
	}
	if offers, err := b.reg.Offers(name); err != nil || len(offers) != 1 {
		t.Fatalf("replica did not adopt: %v, %v", offers, err)
	}
	if b.reg.Epoch() != a.reg.Epoch() {
		t.Fatalf("replica epoch = %d, want %d", b.reg.Epoch(), a.reg.Epoch())
	}
	if b.reg.SnapshotsAdopted() != 1 {
		t.Fatalf("SnapshotsAdopted = %d, want 1", b.reg.SnapshotsAdopted())
	}

	// Unchanged epoch: the next step pushes nothing.
	repl.Step(ctx)
	if repl.Pushes() != 1 {
		t.Fatalf("redundant push happened: pushes = %d", repl.Pushes())
	}

	// The replica races ahead; a stale push from a must not clobber it.
	for i := 0; i < 3; i++ {
		if err := b.reg.BindOffer(NewName("other"), Offer{Ref: testRef("h9:1", string(rune('a'+i))), Host: "h9"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.reg.BindOffer(name, Offer{Ref: testRef("h2:1", "y"), Host: "h2"}); err != nil {
		t.Fatal(err)
	}
	repl.Step(ctx)
	if _, err := b.reg.Offers(NewName("other")); err != nil {
		t.Fatalf("stale push clobbered the replica's newer state: %v", err)
	}
}

func TestHAClientFailoverAndDegradedMode(t *testing.T) {
	a := startNS(t, nil)
	b := startNS(t, nil)
	o := clientORB(t)
	ctx := context.Background()
	name := NewName("svc")
	target := testRef("h1:1", "worker")

	// Both replicas know the binding (replication outcome, hand-rolled).
	for _, ns := range []*testNS{a, b} {
		if err := ns.reg.BindOffer(name, Offer{Ref: target, Host: "h1"}); err != nil {
			t.Fatal(err)
		}
	}

	ha, err := NewHAClient(o, []orb.ObjectRef{a.ref, b.ref}, HAOptions{
		PerTryTimeout: time.Second,
		Breaker:       orb.BreakerOptions{Cooldown: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	got, err := ha.Resolve(ctx, name)
	if err != nil || got != target {
		t.Fatalf("resolve via primary = %v, %v", got, err)
	}
	if s := ha.Stats(); s.Failovers != 0 {
		t.Fatalf("failovers before any failure = %d", s.Failovers)
	}

	// Kill the primary: resolve must transparently fail over to b.
	a.o.Shutdown()
	got, err = ha.Resolve(ctx, name)
	if err != nil || got != target {
		t.Fatalf("resolve after primary death = %v, %v", got, err)
	}
	s := ha.Stats()
	if s.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	if ha.Degraded() {
		t.Fatal("degraded mode with a live replica")
	}
	// The survivor is now primary: no further failovers on the next call.
	if _, err := ha.Resolve(ctx, name); err != nil {
		t.Fatal(err)
	}
	if s2 := ha.Stats(); s2.Failovers != s.Failovers {
		t.Fatalf("sticky primary did not move: failovers %d -> %d", s.Failovers, s2.Failovers)
	}

	// Kill the survivor too: resolve serves the cached reference in
	// explicit degraded mode — zero client-visible errors.
	b.o.Shutdown()
	got, err = ha.Resolve(ctx, name)
	if err != nil || got != target {
		t.Fatalf("degraded resolve = %v, %v", got, err)
	}
	if !ha.Degraded() {
		t.Fatal("degraded flag not set with all replicas down")
	}
	if ha.Stats().DegradedServes == 0 {
		t.Fatal("degraded serve not counted")
	}

	// A name never resolved before has no cached fallback: that IS a
	// resolve error.
	if _, err := ha.Resolve(ctx, NewName("never-seen")); err == nil {
		t.Fatal("uncached resolve with all replicas down succeeded")
	}
	if ha.Stats().ResolveErrors == 0 {
		t.Fatal("resolve error not counted")
	}
}

func TestHAClientAuthoritativeAnswersDoNotFailOver(t *testing.T) {
	a := startNS(t, nil)
	b := startNS(t, nil)
	o := clientORB(t)
	ctx := context.Background()

	ha, err := NewHAClient(o, []orb.ObjectRef{a.ref, b.ref}, HAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The primary is alive and says NotFound: that answer stands, no
	// failover, no resolve-error counting (it is not a transport failure).
	if _, err := ha.Resolve(ctx, NewName("ghost")); !orb.IsUserException(err, ExNotFound) {
		t.Fatalf("err = %v, want NotFound", err)
	}
	s := ha.Stats()
	if s.Failovers != 0 || s.ResolveErrors != 0 {
		t.Fatalf("authoritative NotFound counted as failure: %+v", s)
	}
}

func TestHAClientWritesFailOverToo(t *testing.T) {
	a := startNS(t, nil)
	b := startNS(t, nil)
	o := clientORB(t)
	ctx := context.Background()
	name := NewName("svc")
	ref := testRef("h1:1", "w")

	ha, err := NewHAClient(o, []orb.ObjectRef{a.ref, b.ref}, HAOptions{PerTryTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a.o.Shutdown()
	if err := ha.BindOfferLease(ctx, name, ref, "h1", time.Minute); err != nil {
		t.Fatalf("bind with dead primary: %v", err)
	}
	if offers, err := b.reg.Offers(name); err != nil || len(offers) != 1 {
		t.Fatalf("offer did not land on the survivor: %v, %v", offers, err)
	}
	if leases, err := ha.ListLeases(ctx, name); err != nil || len(leases) != 1 || leases[0].Offer.LeaseTTL != time.Minute {
		t.Fatalf("ListLeases = %+v, %v", leases, err)
	}
}

// slowReplica starts one naming replica whose replies go out through a
// chaos listener, so a delay rule holds back the answer, never the
// caller's own request. It returns a replicated client over that replica
// with name already resolved once (so the cache holds it).
func slowReplica(t *testing.T, name Name, target orb.ObjectRef, brk orb.BreakerOptions) (*Client, *faultnet.Chaos) {
	t.Helper()
	chaos := faultnet.New(1)
	so := orb.New(orb.Options{Name: "ns-replica", Listen: chaos.Listen})
	t.Cleanup(so.Shutdown)
	a, err := so.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	nsRef := a.Activate(DefaultKey, NewServant(reg, nil))
	ha, err := NewHAClient(clientORB(t), []orb.ObjectRef{nsRef}, HAOptions{PerTryTimeout: time.Second, Breaker: brk, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.BindOffer(name, Offer{Ref: target, Host: "h1"}); err != nil {
		t.Fatal(err)
	}
	if got, err := ha.Resolve(context.Background(), name); err != nil || got != target {
		t.Fatalf("warm resolve = %v, %v", got, err)
	}
	return ha, chaos
}

// resolveWithin resolves name under a deadline shorter than the chaos
// delay and checks the caller gets the ORB's TIMEOUT, exactly as a
// NewClient client would.
func resolveWithin(t *testing.T, ha *Client, chaos *faultnet.Chaos, name Name) {
	t.Helper()
	chaos.SetRule(faultnet.Rule{Route: "*", Delay: 300 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := ha.Resolve(ctx, name)
	cancel()
	if !orb.IsSystemException(err, orb.ExTimeout) {
		t.Fatalf("resolve past the caller's deadline = %v, want TIMEOUT", err)
	}
	if chaos.Counters().Delays == 0 {
		t.Fatal("the delay rule never fired")
	}
}

// TestHAClientCallerDeadlineChargesNoReplica: a Resolve whose own
// deadline runs out while a live primary is merely slow returns TIMEOUT.
// The replica is not blamed — its breaker stays closed, no failover is
// counted — and the cached answer is not served as if the control plane
// were down.
func TestHAClientCallerDeadlineChargesNoReplica(t *testing.T) {
	name := NewName("svc")
	ha, chaos := slowReplica(t, name, testRef("h1:1", "a"), orb.BreakerOptions{})
	resolveWithin(t, ha, chaos, name)
	if st := ha.endpoints[0].breaker.State(); st != orb.BreakerClosed {
		t.Fatalf("primary breaker = %v, want closed", st)
	}
	if s := ha.Stats(); s.Failovers != 0 || s.DegradedServes != 0 {
		t.Fatalf("caller's deadline charged to the replica: %+v", s)
	}
	if ha.Degraded() {
		t.Fatal("degraded mode with a live primary")
	}
}

// TestHAClientCallerDeadlineFreesTheProbe: when the caller's deadline
// ends the half-open probe of a recovering replica, the probe slot is
// given back. The next call probes again, reaches the replica and closes
// the breaker — the replica is not shut out for the client's lifetime.
func TestHAClientCallerDeadlineFreesTheProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	name := NewName("svc")
	target := testRef("h1:1", "a")
	ha, chaos := slowReplica(t, name, target, orb.BreakerOptions{Cooldown: time.Second, Clock: func() time.Time { return now }})
	brk := ha.endpoints[0].breaker
	brk.Failure() // the replica was down a moment ago
	now = now.Add(time.Second)

	resolveWithin(t, ha, chaos, name) // the probe, cut short by the caller
	if st := brk.State(); st != orb.BreakerHalfOpen {
		t.Fatalf("breaker after abandoned probe = %v, want half-open", st)
	}
	chaos.Clear()
	if got, err := ha.Resolve(context.Background(), name); err != nil || got != target {
		t.Fatalf("resolve after the abandoned probe = %v, %v", got, err)
	}
	if st := brk.State(); st != orb.BreakerClosed {
		t.Fatalf("breaker after a successful probe = %v, want closed", st)
	}
	if s := ha.Stats(); s.DegradedServes != 0 {
		t.Fatalf("served from the cache with a live replica: %+v", s)
	}
}
