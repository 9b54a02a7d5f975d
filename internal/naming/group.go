package naming

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
)

// Client side of the push protocol: a GroupCache holds, per watched
// name, the membership the nameserver last pushed (or replied to a
// watch with), versioned by the registry epoch. GroupRefs hand out
// members from that cache with a spreading policy, so the common
// failover path — one member dies — is handled entirely locally:
// MarkDead sidelines the member, the next Pick lands on a survivor, and
// the authoritative removal arrives as a push. No resolve RPC at all.
// When the push channel itself is partitioned, a jittered periodic
// re-watch (one RPC per name per period, not per call) is the fallback
// that keeps the cache from rotting.

// WatchBinder is the client surface the cache subscribes through;
// naming.Client satisfies it, and tests substitute fakes.
type WatchBinder interface {
	Watch(ctx context.Context, name Name, callback orb.ObjectRef, sinceEpoch uint64) ([]OfferLease, uint64, error)
	Unwatch(ctx context.Context, name Name, callback orb.ObjectRef) error
}

// SpreadPolicy says how a GroupRef spreads calls over live members.
type SpreadPolicy int

const (
	// SpreadRoundRobin cycles through live members: uniform fan-out for
	// a hot name.
	SpreadRoundRobin SpreadPolicy = iota
	// SpreadWeighted biases geometrically toward the front of the pushed
	// membership. The nameserver ranks pushes winner-first (see
	// RankBySelector), so the least-loaded host gets ~half the traffic
	// with the rest spread down the order — load-aware without a resolve.
	SpreadWeighted
	// SpreadSticky pins every call to one member until it dies, then
	// fails over to a survivor (session affinity with local failover).
	SpreadSticky
)

// GroupCacheOptions tune a GroupCache.
type GroupCacheOptions struct {
	// Refresh is the jittered periodic re-watch interval — the fallback
	// that bounds staleness when the push channel is partitioned
	// (default 60s; negative disables the loop entirely).
	Refresh time.Duration
	// ResubscribeBackoff spaces re-subscription rounds after a naming
	// replica failover. The default is full jitter over 50ms–2s, so ten
	// thousand clients that lost the same replica do not re-watch in one
	// synchronized herd.
	ResubscribeBackoff orb.Backoff
	// DeadMemberTTL is how long a locally-marked-dead member stays
	// sidelined before Picks may try it again, bounding the damage of a
	// false positive until the authoritative push arrives (default 10s).
	DeadMemberTTL time.Duration
	// OnApply, when set, observes every accepted membership update
	// (tests, metrics hooks). Called outside the cache lock.
	OnApply func(name Name, epoch uint64, members int)
	// Clock overrides the dead-member and lease clock (tests).
	Clock func() time.Time
}

// groupEntry is the cached state of one watched name.
type groupEntry struct {
	name     Name
	epoch    uint64
	haveView bool // a first view (watch reply or push) has been applied
	members  []Offer
	expiry   map[orb.ObjectRef]time.Time // lease expiry per member (absolute, local clock)
	dead     map[orb.ObjectRef]time.Time // locally sidelined until t
	rr       uint64                      // round-robin cursor
}

// listenerKeys makes each activated listener servant key unique within a
// process (many caches may share one adapter).
var listenerKeys atomic.Uint64

// GroupCache is the client-side subscription cache: one listener
// servant, any number of watched names. Safe for concurrent use.
type GroupCache struct {
	ns       WatchBinder
	callback orb.ObjectRef
	opts     GroupCacheOptions

	mu      sync.Mutex
	entries map[string]*groupEntry

	rngMu sync.Mutex
	rng   *rand.Rand

	resubscribes atomic.Uint64
	refreshes    atomic.Uint64
	applied      atomic.Uint64
	staleDrops   atomic.Uint64
	failovers    atomic.Uint64

	resubArm atomic.Bool // collapses concurrent failover triggers

	stopOnce sync.Once
	stop     chan struct{}
	loopOnce sync.Once
}

// NewGroupCache activates a listener servant on ad and returns a cache
// subscribing through ns.
func NewGroupCache(ad *orb.Adapter, ns WatchBinder, opts GroupCacheOptions) *GroupCache {
	if opts.Refresh == 0 {
		opts.Refresh = 60 * time.Second
	}
	if opts.ResubscribeBackoff.Base == 0 {
		opts.ResubscribeBackoff = orb.Backoff{
			Base: 50 * time.Millisecond, Max: 2 * time.Second, Multiplier: 2, Jitter: 1,
		}
	}
	if opts.DeadMemberTTL <= 0 {
		opts.DeadMemberTTL = 10 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &GroupCache{
		ns:      ns,
		opts:    opts,
		entries: make(map[string]*groupEntry),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		stop:    make(chan struct{}),
	}
	key := fmt.Sprintf("naming-listener-%d", listenerKeys.Add(1))
	c.callback = ad.Activate(key, &listenerServant{cache: c})
	return c
}

// Resubscribes returns how many watch re-registrations the cache has
// performed after naming failovers.
func (c *GroupCache) Resubscribes() uint64 { return c.resubscribes.Load() }

// Applied returns how many membership updates were accepted.
func (c *GroupCache) Applied() uint64 { return c.applied.Load() }

// StaleDrops returns how many pushes were discarded by the epoch guard.
func (c *GroupCache) StaleDrops() uint64 { return c.staleDrops.Load() }

// Failovers returns how many members were locally marked dead.
func (c *GroupCache) Failovers() uint64 { return c.failovers.Load() }

// ExportMetrics registers the cache's counters with an obs registry.
// Only the canonical naming_group_* names are exported; the pre-rename
// group_* aliases completed their one-release deprecation window and are
// gone.
func (c *GroupCache) ExportMetrics(reg *obs.Registry) {
	reg.NewCounterFunc("naming_watch_resubscribes_total",
		"Watch re-registrations after a naming replica failover.", c.Resubscribes)
	reg.NewCounterFunc("naming_group_member_failovers_total",
		"Group members locally marked dead and failed over from pushed membership.", c.Failovers)
	reg.NewCounterFunc("naming_group_invalidations_applied_total",
		"Pushed or fetched membership updates accepted by the epoch guard.", c.Applied)
	reg.NewCounterFunc("naming_group_stale_pushes_dropped_total",
		"Membership updates discarded for carrying a non-newer epoch.", c.StaleDrops)
	reg.NewCounterFunc("naming_group_refreshes_total",
		"Jittered fallback re-watches (push-channel partition insurance).",
		func() uint64 { return c.refreshes.Load() })
}

// Group returns a spreading ref over the group at name. The first Pick
// (or Resolve) subscribes — the watch call doubles as the initial
// resolve, so a group ref costs one naming RPC up front and then none
// until the subscription is lost.
func (c *GroupCache) Group(name Name, policy SpreadPolicy) *GroupRef {
	c.mu.Lock()
	k := name.String()
	if c.entries[k] == nil {
		c.entries[k] = &groupEntry{
			name:   name,
			expiry: make(map[orb.ObjectRef]time.Time),
			dead:   make(map[orb.ObjectRef]time.Time),
		}
	}
	c.mu.Unlock()
	c.startRefreshLoop()
	return &GroupRef{cache: c, name: name, policy: policy}
}

// apply installs a membership view if (and only if) it is strictly newer
// than the one held — the epoch guard that makes reordered oneway pushes
// harmless. The very first view for a name is always accepted.
func (c *GroupCache) apply(name Name, epoch uint64, leases []OfferLease) {
	now := c.opts.Clock()
	k := name.String()
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		// A push for a name we no longer (or never) watch: drop it.
		c.mu.Unlock()
		return
	}
	if e.haveView && epoch <= e.epoch {
		c.staleDrops.Add(1)
		c.mu.Unlock()
		return
	}
	e.epoch = epoch
	e.haveView = true
	e.members = e.members[:0]
	clear(e.expiry)
	for _, l := range leases {
		e.members = append(e.members, l.Offer)
		if l.Remaining > 0 {
			// Re-anchor the lease on the local clock: absolute server
			// timestamps do not survive clock skew, remaining durations do.
			e.expiry[l.Offer.Ref] = now.Add(l.Remaining)
		}
	}
	members := len(e.members)
	c.mu.Unlock()
	c.applied.Add(1)
	if c.opts.OnApply != nil {
		c.opts.OnApply(name, epoch, members)
	}
}

// subscribe (re)registers the watch for e and applies the reply. Counted
// by the caller (initial / refresh / resubscribe have different meters).
func (c *GroupCache) subscribe(ctx context.Context, name Name, sinceEpoch uint64) error {
	leases, epoch, err := c.ns.Watch(ctx, name, c.callback, sinceEpoch)
	if err != nil {
		return err
	}
	c.apply(name, epoch, leases)
	return nil
}

// ensureSubscribed performs the first watch for name if none succeeded
// yet. It serializes per cache (not per name) for simplicity; the fast
// path is one atomic-ish check under the lock.
func (c *GroupCache) ensureSubscribed(ctx context.Context, name Name) error {
	k := name.String()
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		c.mu.Unlock()
		return errNotFound(name)
	}
	if e.haveView {
		c.mu.Unlock()
		return nil
	}
	since := e.epoch
	c.mu.Unlock()
	return c.subscribe(ctx, name, since)
}

// Resubscribe re-registers every watched name on the (new) naming
// primary after a full-jitter backoff delay — the herd-avoidance
// satellite: thousands of clients that lost the same replica spread
// their re-watch calls over the jitter window instead of stampeding.
// Triggers arriving while a resubscription is already pending are
// collapsed. Wire it to Client.SetOnFailover.
func (c *GroupCache) Resubscribe() {
	if !c.resubArm.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.resubArm.Store(false)
		for round := 1; round <= 8; round++ {
			select {
			case <-c.stop:
				return
			case <-time.After(c.opts.ResubscribeBackoff.Delay(round)):
			}
			if c.rewatchAll(&c.resubscribes) {
				return
			}
			// Some names failed to re-watch; back off further and retry.
			// After the round budget the refresh loop takes over.
		}
	}()
}

// rewatchAll re-watches every entry once, counting successes into
// counter. It reports whether every entry succeeded.
func (c *GroupCache) rewatchAll(counter *atomic.Uint64) bool {
	c.mu.Lock()
	names := make([]Name, 0, len(c.entries))
	sinces := make([]uint64, 0, len(c.entries))
	for _, e := range c.entries {
		names = append(names, e.name)
		sinces = append(sinces, e.epoch)
	}
	c.mu.Unlock()
	ok := true
	for i, n := range names {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := c.subscribe(ctx, n, sinces[i])
		cancel()
		if err != nil {
			ok = false
			slog.Debug("naming: re-watch failed", "name", n.String(), "err", err)
			continue
		}
		counter.Add(1)
	}
	return ok
}

// startRefreshLoop lazily starts the jittered fallback loop (once).
func (c *GroupCache) startRefreshLoop() {
	if c.opts.Refresh < 0 {
		return
	}
	c.loopOnce.Do(func() {
		go func() {
			for {
				d := c.jitteredRefresh()
				select {
				case <-c.stop:
					return
				case <-time.After(d):
				}
				c.rewatchAll(&c.refreshes)
			}
		}()
	})
}

// jitteredRefresh draws the next refresh delay uniformly from
// [Refresh/2, Refresh]: desynchronized by construction.
func (c *GroupCache) jitteredRefresh() time.Duration {
	c.rngMu.Lock()
	f := c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(c.opts.Refresh) * (0.5 + 0.5*f))
}

// Close stops the background loops and best-effort unwatches every name
// (bounded; the server's watcher TTL cleans up anything missed).
func (c *GroupCache) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	names := make([]Name, 0, len(c.entries))
	for _, e := range c.entries {
		names = append(names, e.name)
	}
	c.mu.Unlock()
	for _, n := range names {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = c.ns.Unwatch(ctx, n, c.callback)
		cancel()
	}
}

// markDead sidelines ref in name's entry until DeadMemberTTL elapses.
func (c *GroupCache) markDead(name Name, ref orb.ObjectRef) {
	c.mu.Lock()
	e := c.entries[name.String()]
	if e != nil {
		e.dead[ref] = c.opts.Clock().Add(c.opts.DeadMemberTTL)
	}
	c.mu.Unlock()
	if e != nil {
		c.failovers.Add(1)
	}
}

// live returns name's members minus expired leases and sidelined
// members, in pushed order, plus the round-robin cursor value to use.
func (c *GroupCache) live(name Name) ([]orb.ObjectRef, uint64) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[name.String()]
	if e == nil {
		return nil, 0
	}
	out := make([]orb.ObjectRef, 0, len(e.members))
	for _, m := range e.members {
		if exp, ok := e.expiry[m.Ref]; ok && now.After(exp) {
			continue // lease lapsed and no push reached us: do not trust it
		}
		if until, ok := e.dead[m.Ref]; ok {
			if now.Before(until) {
				continue
			}
			delete(e.dead, m.Ref) // sideline expired: eligible again
		}
		out = append(out, m.Ref)
	}
	e.rr++
	return out, e.rr
}

// Members returns name's current full membership (pushed order).
func (c *GroupCache) Members(name Name) []Offer {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[name.String()]
	if e == nil {
		return nil
	}
	out := make([]Offer, len(e.members))
	copy(out, e.members)
	return out
}

// Epoch returns the registry epoch of name's cached view.
func (c *GroupCache) Epoch(name Name) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[name.String()]
	if e == nil {
		return 0
	}
	return e.epoch
}

// listenerServant receives ns_invalidate pushes for a GroupCache.
type listenerServant struct {
	cache *GroupCache
}

func (l *listenerServant) TypeID() string { return ListenerTypeID }

func (l *listenerServant) Invoke(sctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case opInvalidate:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		epoch := in.GetUint64()
		leases, err := getLeases(in)
		if err != nil {
			return err
		}
		l.cache.apply(name, epoch, leases)
		return nil
	default:
		return orb.BadOperation(op)
	}
}

// GroupRef is one logical name spread over N live servants. It satisfies
// the ft layer's Resolver and Unbinder so a fault-tolerant proxy can run
// its whole recovery loop against pushed membership: Resolve picks
// locally, UnbindOffer/MarkDead sidelines locally — zero naming RPCs on
// the common failover path.
type GroupRef struct {
	cache  *GroupCache
	name   Name
	policy SpreadPolicy

	stickyMu sync.Mutex
	sticky   orb.ObjectRef
}

// Name returns the logical name this ref spreads.
func (g *GroupRef) Name() Name { return g.name }

// Pick returns a live member per the spreading policy, subscribing on
// first use. With an empty live membership it fails locally with
// NotFound — the same answer a resolve of a dead group would give, but
// without the RPC, which is what keeps whole-group death at O(replicas)
// naming traffic instead of O(clients).
func (g *GroupRef) Pick(ctx context.Context) (orb.ObjectRef, error) {
	if err := g.cache.ensureSubscribed(ctx, g.name); err != nil {
		return orb.ObjectRef{}, err
	}
	live, cursor := g.cache.live(g.name)
	if len(live) == 0 {
		return orb.ObjectRef{}, errNotFound(g.name)
	}
	switch g.policy {
	case SpreadSticky:
		g.stickyMu.Lock()
		defer g.stickyMu.Unlock()
		if !g.sticky.IsNil() {
			for _, ref := range live {
				if ref == g.sticky {
					return ref, nil
				}
			}
		}
		// No pin yet, or the pinned member is gone: fail over.
		g.sticky = live[int(cursor)%len(live)]
		return g.sticky, nil
	case SpreadWeighted:
		// Geometric head bias over winner-first pushed order: p(i) ~ 2^-i.
		g.cache.rngMu.Lock()
		defer g.cache.rngMu.Unlock()
		for i := 0; i < len(live)-1; i++ {
			if g.cache.rng.Float64() < 0.5 {
				return live[i], nil
			}
		}
		return live[len(live)-1], nil
	default: // SpreadRoundRobin
		return live[int(cursor)%len(live)], nil
	}
}

// Resolve is Pick under the ft Resolver signature. name must be the
// ref's own name (it is ignored otherwise — a GroupRef resolves exactly
// one logical name).
func (g *GroupRef) Resolve(ctx context.Context, name Name) (orb.ObjectRef, error) {
	return g.Pick(ctx)
}

// MarkDead sidelines ref locally (until DeadMemberTTL) so the next Pick
// fails over to a survivor, and drops a sticky pin on it. The
// authoritative removal arrives by push; marking is only the local
// fast path.
func (g *GroupRef) MarkDead(ref orb.ObjectRef) {
	g.cache.markDead(g.name, ref)
	g.stickyMu.Lock()
	if g.sticky == ref {
		g.sticky = orb.ObjectRef{}
	}
	g.stickyMu.Unlock()
}

// UnbindOffer satisfies the ft layer's Unbinder with a purely local
// MarkDead: the member's own lease lapse (or its host's unbind) is what
// removes it authoritatively, so recovery needs no naming RPC here.
func (g *GroupRef) UnbindOffer(ctx context.Context, name Name, ref orb.ObjectRef) error {
	g.MarkDead(ref)
	return nil
}

// Members returns the current full membership view.
func (g *GroupRef) Members() []Offer { return g.cache.Members(g.name) }

// Epoch returns the registry epoch of the cached view.
func (g *GroupRef) Epoch() uint64 { return g.cache.Epoch(g.name) }
