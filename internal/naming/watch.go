package naming

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
)

// Push-based invalidation: instead of every client re-resolving through
// the naming service on failover (a resolve storm at client scale), the
// nameserver keeps a watch table — name → interested client callbacks —
// and pushes a oneway membership update whenever a name's offers change
// (bound, re-bound, unbound, lease-evicted, replaced by a peer
// snapshot). Pushes carry the registry epoch read atomically with the
// membership (Registry.WatchView), so a client applies an update only if
// it is strictly newer than what it holds; reordered or duplicated
// oneway deliveries are harmless. A reconnecting or resubscribing client
// catches up with one watch call: the reply IS the delta (full current
// membership + epoch for that name).

// ListenerTypeID is the repository id of the client-side callback
// interface that receives membership pushes.
const ListenerTypeID = "IDL:repro/CosNaming/NamingListener:1.0"

// Watch-channel operation names. opWatch/opUnwatch/opListWatches extend
// the naming service contract; opInvalidate is the oneway push the
// nameserver sends to client listener servants.
const (
	opWatch       = "watch"
	opUnwatch     = "unwatch"
	opListWatches = "list_watches"
	opInvalidate  = "ns_invalidate"
)

// putLeases encodes a membership view: count, then per offer its
// reference, host, lease TTL and remaining lease time. The same layout
// serves list_leases replies, watch replies and invalidation pushes.
func putLeases(e *cdr.Encoder, leases []OfferLease) {
	e.PutUint32(uint32(len(leases)))
	for _, l := range leases {
		l.Offer.Ref.MarshalCDR(e)
		e.PutString(l.Offer.Host)
		e.PutInt64(int64(l.Offer.LeaseTTL))
		e.PutInt64(int64(l.Remaining))
	}
}

// getLeases decodes what putLeases wrote.
func getLeases(d *cdr.Decoder) ([]OfferLease, error) {
	n := d.GetUint32()
	if n > 1<<20 {
		return nil, &orb.SystemException{Kind: orb.ExMarshal, Detail: "lease list too long"}
	}
	out := make([]OfferLease, 0, n)
	for i := uint32(0); i < n; i++ {
		var l OfferLease
		if err := l.Offer.Ref.UnmarshalCDR(d); err != nil {
			return nil, err
		}
		l.Offer.Host = d.GetString()
		l.Offer.LeaseTTL = time.Duration(d.GetInt64())
		l.Remaining = time.Duration(d.GetInt64())
		out = append(out, l)
	}
	return out, d.Err()
}

// maxPushFailures drops a watcher after this many consecutive failed
// pushes: a client that went away without unwatching stops costing dial
// attempts.
const maxPushFailures = 3

// HubOptions tune a Hub.
type HubOptions struct {
	// PushTimeout bounds one oneway push to one watcher (default 2s).
	PushTimeout time.Duration
	// WatchTTL drops watchers that have neither re-watched nor accepted
	// a push for this long (default 5m). Client refresh loops re-watch
	// well inside it.
	WatchTTL time.Duration
	// Logger receives drop/push diagnostics (default slog.Default()).
	Logger *slog.Logger
	// Rank, when set, reorders each pushed membership (e.g. the
	// nameserver moves the Winner selector's current pick to the front
	// so winner-weighted clients bias toward the least-loaded host).
	Rank func(name Name, leases []OfferLease) []OfferLease
}

// watcher is one registered callback for one name.
type watcher struct {
	failures int
	lastSeen time.Time
}

// WatchInfo is one row of the operator view behind `nsadmin watches`.
type WatchInfo struct {
	Name     Name
	Watchers int
}

// Hub is the nameserver's push engine. It observes registry mutations
// (via Registry.SetWatchNotify), coalesces dirty names, and has a single
// worker push each dirty name's current membership + epoch to every
// registered watcher as a oneway ns_invalidate. Lock order is
// registry.mu → hub.mu (the notify hook runs under the registry lock);
// the worker therefore never holds hub.mu while reading the registry.
type Hub struct {
	orb  *orb.ORB
	reg  *Registry
	opts HubOptions

	mu      sync.Mutex
	watches map[string]map[orb.ObjectRef]*watcher
	names   map[string]Name // nameKey → parsed name (for wildcard flushes)
	dirty   map[string]Name
	allDirt bool
	kick    chan struct{}

	pushed     atomic.Uint64
	pushErrors atomic.Uint64
	dropped    atomic.Uint64

	startMu  sync.Mutex
	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	now      func() time.Time
}

// NewHub builds the push engine over reg, serving pushes through o, and
// installs itself as the registry's mutation observer.
func NewHub(o *orb.ORB, reg *Registry, opts HubOptions) *Hub {
	if opts.PushTimeout <= 0 {
		opts.PushTimeout = 2 * time.Second
	}
	if opts.WatchTTL <= 0 {
		opts.WatchTTL = 5 * time.Minute
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	h := &Hub{
		orb:     o,
		reg:     reg,
		opts:    opts,
		watches: make(map[string]map[orb.ObjectRef]*watcher),
		names:   make(map[string]Name),
		dirty:   make(map[string]Name),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		now:     time.Now,
	}
	reg.SetWatchNotify(h.Invalidate)
	return h
}

// SetClock overrides the watcher-staleness clock (tests).
func (h *Hub) SetClock(now func() time.Time) {
	h.mu.Lock()
	h.now = now
	h.mu.Unlock()
}

// Invalidate marks n dirty (nil: every watched name) and kicks the
// worker. It is the registry's notify hook and runs under the registry
// lock, so it only records and returns.
func (h *Hub) Invalidate(n Name) {
	h.mu.Lock()
	if n == nil {
		h.allDirt = true
	} else {
		h.dirty[n.String()] = n
	}
	h.mu.Unlock()
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

// Watch registers callback for pushes about name and returns the current
// membership + epoch — the delta-sync reply for a (re)subscribing
// client. sinceEpoch is the epoch the client already holds; it is
// advisory (the reply always carries the full current view for the
// name, and the client's epoch guard discards it if not newer).
func (h *Hub) Watch(name Name, callback orb.ObjectRef, sinceEpoch uint64) ([]OfferLease, uint64) {
	k := name.String()
	h.mu.Lock()
	ws := h.watches[k]
	if ws == nil {
		ws = make(map[orb.ObjectRef]*watcher)
		h.watches[k] = ws
		h.names[k] = name
	}
	w := ws[callback]
	if w == nil {
		w = &watcher{}
		ws[callback] = w
	}
	w.failures = 0
	w.lastSeen = h.now()
	h.mu.Unlock()
	leases, epoch := h.reg.WatchView(name)
	if h.opts.Rank != nil {
		leases = h.opts.Rank(name, leases)
	}
	return leases, epoch
}

// Unwatch removes callback's registration for name.
func (h *Hub) Unwatch(name Name, callback orb.ObjectRef) {
	k := name.String()
	h.mu.Lock()
	if ws := h.watches[k]; ws != nil {
		delete(ws, callback)
		if len(ws) == 0 {
			delete(h.watches, k)
			delete(h.names, k)
		}
	}
	h.mu.Unlock()
}

// Watches returns the current watch table, sorted by name.
func (h *Hub) Watches() []WatchInfo {
	h.mu.Lock()
	out := make([]WatchInfo, 0, len(h.watches))
	for k, ws := range h.watches {
		out = append(out, WatchInfo{Name: h.names[k], Watchers: len(ws)})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name.String() < out[j].Name.String() })
	return out
}

// Watchers returns the total number of registered (name, callback)
// pairs.
func (h *Hub) Watchers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, ws := range h.watches {
		n += len(ws)
	}
	return n
}

// Pushed returns how many invalidation pushes have been delivered.
func (h *Hub) Pushed() uint64 { return h.pushed.Load() }

// PushErrors returns how many pushes failed.
func (h *Hub) PushErrors() uint64 { return h.pushErrors.Load() }

// Dropped returns how many watchers were evicted (push failures or
// staleness).
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// ExportMetrics registers the hub's counters with an obs registry.
func (h *Hub) ExportMetrics(reg *obs.Registry) {
	reg.NewCounterFunc("naming_invalidations_pushed_total",
		"Oneway membership invalidations pushed to watching clients.", h.Pushed)
	reg.NewCounterFunc("naming_invalidation_push_errors_total",
		"Invalidation pushes that failed to reach the watcher.", h.PushErrors)
	reg.NewCounterFunc("naming_watchers_dropped_total",
		"Watchers evicted after repeated push failures or staleness.", h.Dropped)
	reg.NewGaugeFunc("naming_watchers",
		"Registered (name, callback) watch pairs.",
		func() float64 { return float64(h.Watchers()) })
}

// Flush synchronously pushes every dirty name once. The worker calls it
// on each kick; tests call it directly for deterministic delivery.
func (h *Hub) Flush() {
	h.mu.Lock()
	dirty := h.dirty
	h.dirty = make(map[string]Name)
	if h.allDirt {
		h.allDirt = false
		for k, n := range h.names {
			dirty[k] = n
		}
	}
	type job struct {
		name Name
		refs []orb.ObjectRef
	}
	jobs := make([]job, 0, len(dirty))
	for k, n := range dirty {
		ws := h.watches[k]
		if len(ws) == 0 {
			continue
		}
		refs := make([]orb.ObjectRef, 0, len(ws))
		for ref := range ws {
			refs = append(refs, ref)
		}
		jobs = append(jobs, job{name: n, refs: refs})
	}
	h.mu.Unlock()

	for _, j := range jobs {
		leases, epoch := h.reg.WatchView(j.name)
		if h.opts.Rank != nil {
			leases = h.opts.Rank(j.name, leases)
		}
		for _, ref := range j.refs {
			h.pushTo(j.name, ref, leases, epoch)
		}
	}
}

// pushTo delivers one membership update to one watcher, tracking
// consecutive failures and dropping the watcher past the limit.
func (h *Hub) pushTo(name Name, callback orb.ObjectRef, leases []OfferLease, epoch uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), h.opts.PushTimeout)
	err := h.orb.Notify(ctx, callback, opInvalidate, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		e.PutUint64(epoch)
		putLeases(e, leases)
	})
	cancel()
	k := name.String()
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := h.watches[k]
	w := ws[callback]
	if w == nil {
		return // unwatched while we were pushing
	}
	if err == nil {
		h.pushed.Add(1)
		w.failures = 0
		w.lastSeen = h.now()
		return
	}
	h.pushErrors.Add(1)
	w.failures++
	if w.failures >= maxPushFailures {
		delete(ws, callback)
		if len(ws) == 0 {
			delete(h.watches, k)
			delete(h.names, k)
		}
		h.dropped.Add(1)
		h.opts.Logger.Info("naming: watcher dropped after repeated push failures",
			"name", k, "callback", callback.Addr, "failures", w.failures)
	}
}

// sweepWatchers drops watchers that have been silent past WatchTTL.
func (h *Hub) sweepWatchers() {
	cutoff := h.now().Add(-h.opts.WatchTTL)
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, ws := range h.watches {
		for ref, w := range ws {
			if w.lastSeen.Before(cutoff) {
				delete(ws, ref)
				h.dropped.Add(1)
				h.opts.Logger.Info("naming: stale watcher dropped",
					"name", k, "callback", ref.Addr)
			}
		}
		if len(ws) == 0 {
			delete(h.watches, k)
			delete(h.names, k)
		}
	}
}

// Start launches the push worker. Start is idempotent.
func (h *Hub) Start() {
	h.startMu.Lock()
	if h.started {
		h.startMu.Unlock()
		return
	}
	h.started = true
	h.startMu.Unlock()
	go func() {
		defer close(h.done)
		t := time.NewTicker(h.opts.WatchTTL / 4)
		defer t.Stop()
		for {
			select {
			case <-h.kick:
				h.Flush()
			case <-t.C:
				h.sweepWatchers()
			case <-h.stop:
				return
			}
		}
	}()
}

// HealthProbe is the hub's component probe for obs.Health: unhealthy
// before Start and after Stop, when watchers silently go stale because
// no one pushes invalidations.
func (h *Hub) HealthProbe() error {
	h.startMu.Lock()
	started := h.started
	h.startMu.Unlock()
	if !started {
		return errors.New("push hub not started")
	}
	select {
	case <-h.stop:
		return errors.New("push hub stopped")
	default:
		return nil
	}
}

// Stop halts the worker and waits for it to exit.
func (h *Hub) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.startMu.Lock()
	started := h.started
	h.startMu.Unlock()
	if started {
		<-h.done
	}
}

// RankBySelector builds a Hub.Rank that moves the selector's current
// pick to the front of each pushed membership, so winner-weighted
// clients bias toward the host the load-distribution service would have
// chosen.
func RankBySelector(sel Selector) func(Name, []OfferLease) []OfferLease {
	return func(name Name, leases []OfferLease) []OfferLease {
		if sel == nil || len(leases) < 2 {
			return leases
		}
		offers := make([]Offer, len(leases))
		for i, l := range leases {
			offers[i] = l.Offer
		}
		chosen, err := sel.Select(name, offers)
		if err != nil {
			return leases
		}
		for i, l := range leases {
			if l.Offer.Ref == chosen.Ref && i > 0 {
				out := make([]OfferLease, 0, len(leases))
				out = append(out, l)
				out = append(out, leases[:i]...)
				out = append(out, leases[i+1:]...)
				return out
			}
		}
		return leases
	}
}
