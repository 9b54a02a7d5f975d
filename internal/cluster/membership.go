package cluster

import (
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// EventKind classifies a membership transition.
type EventKind uint8

const (
	// Join: a host became part of the live pool (first offer bound, first
	// load sample, or explicit report).
	Join EventKind = iota + 1
	// Leave: a host left the pool (its last offer unbound by recovery or
	// lease expiry, pushed invalidation, explicit report). However many
	// subsystems notice the same death, exactly one Leave is emitted.
	Leave
	// Degrading: the host is still alive but its Winner load trend
	// (effective speed over its observed peak) stayed below the configured
	// threshold for K consecutive samples — the signal proactive migration
	// acts on before the host dies.
	Degrading
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Degrading:
		return "degrading"
	default:
		return "unknown"
	}
}

// Event is one membership transition. Events carry a per-membership
// sequence number; every subscriber observes the same events in the same
// (Seq) order.
type Event struct {
	Kind EventKind
	Host string
	// Seq is the membership-wide sequence number of this event.
	Seq uint64
	// Eff is the host's last known effective speed (0 if never sampled).
	Eff float64
	// Trend is Eff over the host's peak effective speed at emission time
	// (meaningful for Degrading events; 0 when no peak is known).
	Trend float64
	// Source names the subsystem whose report caused the transition
	// ("winner", "naming", "push", ...). With several subsystems racing
	// to report the same death, Source records the one that got there
	// first.
	Source string
}

// MemberInfo is a point-in-time view of one host.
type MemberInfo struct {
	Host     string
	Alive    bool
	Eff      float64
	Peak     float64
	Trend    float64
	Degraded bool
}

// memberState is the internal per-host record.
type memberState struct {
	alive    bool
	eff      float64
	peak     float64
	below    int // consecutive samples with trend below threshold
	degraded bool
}

// MemberOption customizes a Membership.
type MemberOption func(*Membership)

// WithDegradeTrend sets the load-trend threshold: a host whose effective
// speed falls below trend×peak for DegradeSamples consecutive samples
// emits Degrading (default 0.5).
func WithDegradeTrend(trend float64) MemberOption {
	return func(m *Membership) {
		if trend > 0 && trend < 1 {
			m.degradeTrend = trend
		}
	}
}

// WithDegradeSamples sets K, the consecutive below-threshold samples
// required before Degrading fires (default 3) — one noisy sample must not
// trigger a migration.
func WithDegradeSamples(k int) MemberOption {
	return func(m *Membership) {
		if k > 0 {
			m.degradeSamples = k
		}
	}
}

// WithMembershipLogger records every emitted event on l.
func WithMembershipLogger(l *slog.Logger) MemberOption {
	return func(m *Membership) { m.logger = l }
}

// Membership is the unified, subscribable view of the live host pool.
// What was previously scattered — winner.Manager load samples, naming
// offer lifecycle (binds, recovery unbinds, lease expiry), pushed
// ns_invalidate membership — funnels into one place that dedups racing
// reports (a single death is one Leave, however many subsystems notice
// it) and derives the Degrading signal from Winner load trends. The
// elastic manager, the proactive migrator and the daemons all consume
// this one view.
// All methods are safe for concurrent use.
type Membership struct {
	degradeTrend   float64
	degradeSamples int
	logger         *slog.Logger

	mu      sync.Mutex
	hosts   map[string]*memberState
	seq     uint64
	subs    map[uint64]*memberSub
	nextSub uint64

	joins      atomic.Uint64
	leaves     atomic.Uint64
	degradings atomic.Uint64
}

// NewMembership creates an empty membership view.
func NewMembership(opts ...MemberOption) *Membership {
	m := &Membership{
		degradeTrend:   0.5,
		degradeSamples: 3,
		hosts:          make(map[string]*memberState),
		subs:           make(map[uint64]*memberSub),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// memberSub is one subscription: an ordered queue drained by a pump
// goroutine, so reporters never block on a slow subscriber and every
// subscriber still sees every event in order.
type memberSub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Event
	closed bool
	done   chan struct{}
	ch     chan Event
}

// Subscribe registers an event listener. The returned channel delivers
// every subsequent event in sequence order; the cancel function
// unregisters the subscription and closes the channel. Subscribe first,
// then Snapshot/Alive, to observe every transition after the snapshot.
func (m *Membership) Subscribe() (<-chan Event, func()) {
	s := &memberSub{ch: make(chan Event, 16), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	m.mu.Lock()
	id := m.nextSub
	m.nextSub++
	m.subs[id] = s
	m.mu.Unlock()
	go s.pump()
	cancel := func() {
		m.mu.Lock()
		delete(m.subs, id)
		m.mu.Unlock()
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			close(s.done)
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}
	return s.ch, cancel
}

func (s *memberSub) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			close(s.ch)
			return
		}
		ev := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		select {
		case s.ch <- ev:
		case <-s.done:
			close(s.ch)
			return
		}
	}
}

// enqueue appends ev to the subscription queue. Called under m.mu so the
// relative order of events is identical across subscribers.
func (s *memberSub) enqueue(ev Event) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, ev)
	}
	s.mu.Unlock()
	s.cond.Signal()
}

// emit assigns the next sequence number and fans ev out. Callers hold m.mu.
func (m *Membership) emit(ev Event) {
	m.seq++
	ev.Seq = m.seq
	switch ev.Kind {
	case Join:
		m.joins.Add(1)
	case Leave:
		m.leaves.Add(1)
	case Degrading:
		m.degradings.Add(1)
	}
	for _, s := range m.subs {
		s.enqueue(ev)
	}
	if m.logger != nil {
		m.logger.Info("cluster: membership event",
			"kind", ev.Kind.String(), "host", ev.Host, "seq", ev.Seq,
			"eff", ev.Eff, "trend", ev.Trend, "source", ev.Source)
	}
}

// ReportAlive records that host is serving (an offer bound, a heartbeat
// seen). Idempotent: only a dead→alive (or unknown→alive) transition
// emits Join.
func (m *Membership) ReportAlive(host, source string) {
	if host == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hosts[host]
	if h == nil {
		h = &memberState{}
		m.hosts[host] = h
	}
	if h.alive {
		return
	}
	// A rejoining host is a new incarnation: old trend history is void.
	*h = memberState{alive: true}
	m.emit(Event{Kind: Join, Host: host, Source: source})
}

// ReportDead records that host is gone. Idempotent: however many
// subsystems report the same death (offer tracking, Winner, pushed
// invalidation), only the first report emits Leave.
func (m *Membership) ReportDead(host, source string) {
	if host == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hosts[host]
	if h == nil || !h.alive {
		return
	}
	eff := h.eff
	*h = memberState{}
	m.emit(Event{Kind: Leave, Host: host, Eff: eff, Source: source})
}

// ReportLoad ingests a Winner effective-speed sample for host. A sample
// implies liveness (emitting Join for an unknown host), updates the
// host's observed peak, and drives the degrading-trend policy: eff/peak
// below the threshold for K consecutive samples emits one Degrading event
// per degradation episode (a recovered trend re-arms the detector).
func (m *Membership) ReportLoad(host string, eff float64, source string) {
	if host == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hosts[host]
	if h == nil || !h.alive {
		if h == nil {
			h = &memberState{}
			m.hosts[host] = h
		}
		*h = memberState{alive: true}
		m.emit(Event{Kind: Join, Host: host, Eff: eff, Source: source})
	}
	h.eff = eff
	if eff > h.peak {
		h.peak = eff
	}
	if h.peak <= 0 {
		return
	}
	trend := eff / h.peak
	if trend >= m.degradeTrend {
		h.below = 0
		h.degraded = false
		return
	}
	h.below++
	if h.below >= m.degradeSamples && !h.degraded {
		h.degraded = true
		m.emit(Event{Kind: Degrading, Host: host, Eff: eff, Trend: trend, Source: source})
	}
}

// Alive returns the sorted names of live hosts.
func (m *Membership) Alive() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for host, h := range m.hosts {
		if h.alive {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// AliveCount returns the number of live hosts.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.hosts {
		if h.alive {
			n++
		}
	}
	return n
}

// Healthy reports whether host is alive and not currently degrading —
// the predicate migration targets must pass.
func (m *Membership) Healthy(host string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hosts[host]
	return h != nil && h.alive && !h.degraded
}

// Snapshot returns every known host's state, sorted by name.
func (m *Membership) Snapshot() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, 0, len(m.hosts))
	for host, h := range m.hosts {
		mi := MemberInfo{Host: host, Alive: h.alive, Eff: h.eff, Peak: h.peak, Degraded: h.degraded}
		if h.peak > 0 {
			mi.Trend = h.eff / h.peak
		}
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Seq returns the sequence number of the newest emitted event.
func (m *Membership) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Joins returns the total number of Join events emitted.
func (m *Membership) Joins() uint64 { return m.joins.Load() }

// Leaves returns the total number of Leave events emitted.
func (m *Membership) Leaves() uint64 { return m.leaves.Load() }

// Degradings returns the total number of Degrading events emitted.
func (m *Membership) Degradings() uint64 { return m.degradings.Load() }

// ExportMetrics registers the membership gauges and counters on reg.
func (m *Membership) ExportMetrics(reg *obs.Registry) {
	reg.NewGaugeFunc("cluster_members_alive",
		"Hosts currently in the live membership view.",
		func() float64 { return float64(m.AliveCount()) })
	reg.NewCounterFunc("cluster_membership_joins_total",
		"Join events emitted by the membership view.", m.Joins)
	reg.NewCounterFunc("cluster_membership_leaves_total",
		"Leave events emitted by the membership view.", m.Leaves)
	reg.NewCounterFunc("cluster_membership_degrading_total",
		"Degrading events emitted by the load-trend policy.", m.Degradings)
}

// Feeder is a Membership bound to one source label, matching the small
// report interfaces the feeding subsystems (winner.Manager, naming
// caches) declare locally — they stay decoupled from this package.
type Feeder struct {
	m      *Membership
	source string
}

// Feed returns a reporter that attributes everything to source.
func (m *Membership) Feed(source string) *Feeder { return &Feeder{m: m, source: source} }

// ReportAlive reports host as live.
func (f *Feeder) ReportAlive(host string) { f.m.ReportAlive(host, f.source) }

// ReportDead reports host as gone.
func (f *Feeder) ReportDead(host string) { f.m.ReportDead(host, f.source) }

// ReportLoad ingests an effective-speed sample for host.
func (f *Feeder) ReportLoad(host string, eff float64) { f.m.ReportLoad(host, eff, f.source) }

// OfferTracker refcounts naming offers per host and drives membership
// from the transitions: a host's first offer is a Join, its last offer
// going away is a Leave. Wire it to naming.Registry.SetOfferObserver in a
// nameserver.
type OfferTracker struct {
	mu     sync.Mutex
	counts map[string]int
	f      *Feeder
}

// TrackOffers returns an offer-refcounting feeder attributed to source.
func (m *Membership) TrackOffers(source string) *OfferTracker {
	return &OfferTracker{counts: make(map[string]int), f: m.Feed(source)}
}

// Bound records one offer bound on host.
func (t *OfferTracker) Bound(host string) {
	if host == "" {
		return
	}
	t.mu.Lock()
	t.counts[host]++
	first := t.counts[host] == 1
	t.mu.Unlock()
	if first {
		t.f.ReportAlive(host)
	}
}

// Unbound records one offer removed from host.
func (t *OfferTracker) Unbound(host string) {
	if host == "" {
		return
	}
	t.mu.Lock()
	if t.counts[host] == 0 {
		t.mu.Unlock()
		return
	}
	t.counts[host]--
	last := t.counts[host] == 0
	if last {
		delete(t.counts, host)
	}
	t.mu.Unlock()
	if last {
		t.f.ReportDead(host)
	}
}
