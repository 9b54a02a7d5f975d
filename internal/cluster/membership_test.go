package cluster

import (
	"sync"
	"testing"
)

// collect drains n events from ch into a slice.
func collect(t *testing.T, ch <-chan Event, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	for len(out) < n {
		ev, ok := <-ch
		if !ok {
			t.Fatalf("channel closed after %d/%d events", len(out), n)
		}
		out = append(out, ev)
	}
	return out
}

func TestMembershipJoinLeaveEvents(t *testing.T) {
	m := NewMembership()
	ch, cancel := m.Subscribe()
	defer cancel()

	m.ReportAlive("h1", "test")
	m.ReportAlive("h2", "test")
	m.ReportDead("h1", "test")

	evs := collect(t, ch, 3)
	want := []struct {
		kind EventKind
		host string
	}{{Join, "h1"}, {Join, "h2"}, {Leave, "h1"}}
	for i, w := range want {
		if evs[i].Kind != w.kind || evs[i].Host != w.host {
			t.Fatalf("event %d = %v/%s, want %v/%s", i, evs[i].Kind, evs[i].Host, w.kind, w.host)
		}
	}
	if m.AliveCount() != 1 {
		t.Fatalf("alive = %d", m.AliveCount())
	}
}

func TestMembershipDeathReportedOnceAcrossSources(t *testing.T) {
	// Recovery unbinds, lease expiry and push invalidation all funnel into
	// the membership view, and a single death must produce exactly one
	// Leave regardless of how many layers report it.
	m := NewMembership()
	ch, cancel := m.Subscribe()
	defer cancel()

	m.ReportAlive("h1", "offers")
	m.ReportDead("h1", "recovery")
	m.ReportDead("h1", "sweeper") // duplicate: already dead
	m.ReportDead("h1", "push")    // duplicate
	m.ReportAlive("h2", "offers") // sentinel so we know the queue drained

	evs := collect(t, ch, 3)
	if evs[0].Kind != Join || evs[1].Kind != Leave || evs[2].Kind != Join {
		t.Fatalf("events = %v", evs)
	}
	if evs[1].Source != "recovery" {
		t.Fatalf("leave source = %q, want the first reporter", evs[1].Source)
	}
	if m.Leaves() != 1 {
		t.Fatalf("leaves = %d, want 1", m.Leaves())
	}
}

func TestMembershipSubscriptionOrderingUnderConcurrency(t *testing.T) {
	// Several goroutines hammer the membership while several subscribers
	// listen; every subscriber must observe a strictly increasing Seq, and
	// all subscribers must agree on the event sequence (same Seq → same
	// event). Run with -race.
	m := NewMembership(WithDegradeSamples(2))
	const subs = 4
	chans := make([]<-chan Event, subs)
	cancels := make([]func(), subs)
	for i := range chans {
		chans[i], cancels[i] = m.Subscribe()
		defer cancels[i]()
	}

	hosts := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for _, h := range hosts {
		wg.Add(1)
		go func(h string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.ReportAlive(h, "test")
				m.ReportLoad(h, 1.0, "test")
				m.ReportLoad(h, 0.1, "test") // trend collapses
				m.ReportLoad(h, 0.1, "test") // second strike → Degrading
				m.ReportDead(h, "test")
			}
		}(h)
	}
	wg.Wait()

	// Per host per iteration: Join, Degrading, Leave = 3 events.
	total := len(hosts) * 50 * 3
	seen := make([]map[uint64]Event, subs)
	for i, ch := range chans {
		evs := collect(t, ch, total)
		seen[i] = make(map[uint64]Event, total)
		last := uint64(0)
		for _, ev := range evs {
			if ev.Seq <= last {
				t.Fatalf("subscriber %d: seq %d after %d (order violated)", i, ev.Seq, last)
			}
			last = ev.Seq
			seen[i][ev.Seq] = ev
		}
	}
	for i := 1; i < subs; i++ {
		if len(seen[i]) != len(seen[0]) {
			t.Fatalf("subscriber %d saw %d events, subscriber 0 saw %d", i, len(seen[i]), len(seen[0]))
		}
		for seq, ev := range seen[0] {
			got, ok := seen[i][seq]
			if !ok || got.Kind != ev.Kind || got.Host != ev.Host {
				t.Fatalf("subscriber %d disagrees at seq %d: %+v vs %+v", i, seq, got, ev)
			}
		}
	}
	if m.Joins() != uint64(len(hosts)*50) || m.Leaves() != uint64(len(hosts)*50) {
		t.Fatalf("joins/leaves = %d/%d", m.Joins(), m.Leaves())
	}
}

func TestMembershipDegradingOncePerEpisode(t *testing.T) {
	m := NewMembership(WithDegradeTrend(0.5), WithDegradeSamples(3))
	ch, cancel := m.Subscribe()
	defer cancel()

	m.ReportLoad("h1", 2.0, "winner") // implies Join; establishes peak
	for i := 0; i < 10; i++ {
		m.ReportLoad("h1", 0.2, "winner") // trend 0.1 — below threshold
	}
	// Recovery re-arms the episode...
	m.ReportLoad("h1", 2.0, "winner")
	for i := 0; i < 3; i++ {
		m.ReportLoad("h1", 0.2, "winner")
	}

	// Expect: Join, Degrading (after 3 low samples), Degrading (second
	// episode) — and nothing else despite 10 low samples in episode one.
	evs := collect(t, ch, 3)
	if evs[0].Kind != Join {
		t.Fatalf("first event %v", evs[0].Kind)
	}
	if evs[1].Kind != Degrading || evs[2].Kind != Degrading {
		t.Fatalf("events = %v", evs)
	}
	if got := m.Degradings(); got != 2 {
		t.Fatalf("degradings = %d, want 2", got)
	}
	if m.Healthy("h1") {
		t.Fatal("degraded host reported healthy")
	}
}

func TestMembershipSubscribeCancelUnblocks(t *testing.T) {
	m := NewMembership()
	ch, cancel := m.Subscribe()
	// Fill well past the channel buffer without reading.
	for i := 0; i < 100; i++ {
		m.ReportAlive("h", "t")
		m.ReportDead("h", "t")
	}
	cancel()
	cancel() // idempotent
	// The channel must eventually close; emitting afterwards must not
	// block or panic.
	for range ch {
	}
	m.ReportAlive("h2", "t")
}

func TestMembershipOfferTrackerRefcounts(t *testing.T) {
	m := NewMembership()
	ch, cancel := m.Subscribe()
	defer cancel()
	tr := m.TrackOffers("naming")

	tr.Bound("h1") // first offer → Join
	tr.Bound("h1") // second offer on same host: no event
	tr.Unbound("h1")
	m.ReportAlive("sentinel", "t")
	tr.Unbound("h1") // last offer gone → Leave
	evs := collect(t, ch, 3)
	if evs[0].Kind != Join || evs[0].Host != "h1" {
		t.Fatalf("first = %+v", evs[0])
	}
	if evs[1].Kind != Join || evs[1].Host != "sentinel" {
		t.Fatalf("second = %+v (refcounted rebind must not emit)", evs[1])
	}
	if evs[2].Kind != Leave || evs[2].Host != "h1" {
		t.Fatalf("third = %+v", evs[2])
	}
}

func TestMembershipRejoinAfterDeath(t *testing.T) {
	m := NewMembership(WithDegradeSamples(2))
	m.ReportLoad("h1", 1.0, "t")
	m.ReportLoad("h1", 0.1, "t")
	m.ReportLoad("h1", 0.1, "t") // degraded
	if m.Healthy("h1") {
		t.Fatal("want degraded")
	}
	m.ReportDead("h1", "t")
	m.ReportAlive("h1", "t")
	// Rejoin resets degradation state: fresh peak, healthy again.
	if !m.Healthy("h1") {
		t.Fatal("rejoined host must be healthy")
	}
	if m.AliveCount() != 1 {
		t.Fatalf("alive = %d", m.AliveCount())
	}
}
