package naming

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
)

// replicas is the replica layer of a Client built by NewHAClient: one
// endpoint per nameserver replica behind its own circuit breaker, with
// failover on transport-class errors (COMM_FAILURE, timeouts, TRANSIENT,
// OBJECT_NOT_EXIST). The first healthy endpoint becomes sticky — all
// clients configured with the same endpoint ordering converge on the
// same primary, which keeps writes serialised on one replica while the
// others trail by a replication period.
//
// Resolve results feed a bounded cache; when every replica is down,
// Resolve serves the last-known reference from that cache in an explicit
// degraded mode (logged, counted) instead of erroring — the paper's
// recovery loop can then still reach a live server even while the whole
// control plane restarts.
//
// On a NewClient client the layer is empty: no endpoints, counters that
// stay zero, and no cache.
type replicas struct {
	endpoints []haEndpoint
	haOpts    HAOptions

	primary atomic.Int64
	// onFailover, when set, runs (in its own goroutine) every time the
	// sticky primary re-pins to a different endpoint — the signal watch
	// subscribers use to re-register on the new replica.
	onFailover atomic.Value // func(addr string)

	cacheMu  sync.Mutex
	cache    map[string]haCacheEntry
	cacheFF  []string // FIFO eviction order
	degraded atomic.Bool

	failovers      atomic.Uint64
	degradedServes atomic.Uint64
	staleServes    atomic.Uint64
	resolveErrors  atomic.Uint64
}

// haCacheSize bounds the degraded-mode resolve cache (names).
const haCacheSize = 256

// haCacheEntry is one cached resolve result, aged by the offer's lease.
type haCacheEntry struct {
	ref orb.ObjectRef
	ttl time.Duration // lease TTL at resolve time (0: leaseless)
	at  time.Time     // when the entry was cached
}

// haEndpoint is one replica with its breaker.
type haEndpoint struct {
	ref     orb.ObjectRef
	breaker *orb.Breaker
}

// HAOptions tune a client built by NewHAClient.
type HAOptions struct {
	// PerTryTimeout bounds one attempt against one endpoint, so a hung
	// replica costs bounded time before failover (default 2s).
	PerTryTimeout time.Duration
	// Breaker configures the per-endpoint circuit breakers.
	Breaker orb.BreakerOptions
	// Logger receives failover/degraded diagnostics (default
	// slog.Default()).
	Logger *slog.Logger
	// Clock overrides the cache-aging clock (tests; default time.Now).
	Clock func() time.Time
}

// HAStats is a snapshot of the client's failover counters.
type HAStats struct {
	// Failovers counts endpoint attempts abandoned for the next replica.
	Failovers uint64
	// DegradedServes counts resolves served from the cache because no
	// replica answered.
	DegradedServes uint64
	// StaleServes counts degraded serves of cache entries older than the
	// lease TTL the offer carried when cached: the reference may point at
	// a server whose lease has since lapsed. Such entries are still served
	// (availability over freshness while the whole control plane is down)
	// but never silently — each one is counted here and logged.
	StaleServes uint64
	// ResolveErrors counts resolves that failed outright: no replica
	// answered and the cache had nothing (transport-class exhaustion
	// only; authoritative answers like NotFound are not errors).
	ResolveErrors uint64
}

// NewHAClient builds a Client over the given replica refs (at least one),
// with the replica layer under its call function. Order matters: earlier
// refs are preferred as primary.
func NewHAClient(o *orb.ORB, refs []orb.ObjectRef, opts HAOptions) (*Client, error) {
	if len(refs) == 0 {
		return nil, errors.New("naming: NewHAClient needs at least one endpoint")
	}
	if opts.PerTryTimeout <= 0 {
		opts.PerTryTimeout = 2 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := NewClient(o, refs[0])
	c.haOpts = opts
	c.cache = make(map[string]haCacheEntry)
	for _, ref := range refs {
		c.endpoints = append(c.endpoints, haEndpoint{ref: ref, breaker: orb.NewBreaker(opts.Breaker)})
	}
	return c, nil
}

// Stats returns the current failover counters.
func (c *Client) Stats() HAStats {
	return HAStats{
		Failovers:      c.failovers.Load(),
		DegradedServes: c.degradedServes.Load(),
		StaleServes:    c.staleServes.Load(),
		ResolveErrors:  c.resolveErrors.Load(),
	}
}

// SetOnFailover installs fn to run (in its own goroutine) whenever the
// sticky primary re-pins to a different endpoint, with the new primary's
// address. Watch subscribers hook this to re-register their watches on
// the replica that is now answering.
func (c *Client) SetOnFailover(fn func(addr string)) {
	c.onFailover.Store(fn)
}

// Degraded reports whether the last resolve was served from the cache
// with every replica unreachable.
func (c *Client) Degraded() bool { return c.degraded.Load() }

// ExportMetrics registers the failover counters with an obs registry
// under the names the acceptance dashboards scrape.
func (c *Client) ExportMetrics(reg *obs.Registry) {
	reg.NewCounterFunc("naming_failovers_total",
		"Nameserver endpoint attempts abandoned for the next replica.",
		func() uint64 { return c.failovers.Load() })
	reg.NewCounterFunc("naming_degraded_serves_total",
		"Resolves served from the client-side cache with all replicas down.",
		func() uint64 { return c.degradedServes.Load() })
	reg.NewCounterFunc("naming_stale_serves_total",
		"Degraded serves of cached references older than their lease TTL.",
		func() uint64 { return c.staleServes.Load() })
	reg.NewCounterFunc("naming_resolve_errors_total",
		"Resolves that failed with no replica reachable and no cached reference.",
		func() uint64 { return c.resolveErrors.Load() })
	reg.NewGaugeFunc("naming_degraded",
		"1 while the naming client is serving cached references in degraded mode.",
		func() float64 {
			if c.degraded.Load() {
				return 1
			}
			return 0
		})
}

// HealthProbe is the naming client's component probe for obs.Health:
// unhealthy while serving cached references in degraded mode (every
// replica down), degraded detail while some replica breakers are open.
func (c *Client) HealthProbe() error {
	if c.degraded.Load() {
		return errors.New("all nameserver replicas down, serving cached references")
	}
	open := 0
	for _, e := range c.endpoints {
		if e.breaker.State() == orb.BreakerOpen {
			open++
		}
	}
	if open > 0 {
		return fmt.Errorf("%d/%d replica breakers open", open, len(c.endpoints))
	}
	return nil
}

// failoverErr classifies err as transport-class: worth trying the next
// replica. Authoritative answers (user exceptions such as NotFound,
// marshal errors, cancellations) must NOT fail over — a healthy replica
// said no, and asking another would at best duplicate the answer.
func failoverErr(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true // per-try timeout: the endpoint is unresponsive
	}
	return orb.IsCommFailure(err) ||
		orb.IsSystemException(err, orb.ExTimeout) ||
		orb.IsSystemException(err, orb.ExTransient) ||
		orb.IsSystemException(err, orb.ExObjectNotExist)
}

// errAllReplicasDown is returned when no endpoint produced an answer. It
// is a COMM_FAILURE so upper layers (ft proxies' recovery classifiers)
// treat it exactly like a single dead nameserver.
func errAllReplicasDown(last error) error {
	return &orb.SystemException{Kind: orb.ExCommFailure, Detail: fmt.Sprintf("naming: no replica reachable (last: %v)", last)}
}

// failover issues op against the replicas starting at the sticky primary,
// failing over on transport errors, honouring breakers, and re-pinning
// the primary to whichever endpoint answered. When the caller's own ctx
// ends, the attempt in flight is charged to nobody: its TIMEOUT or
// CANCELLED is the caller's, not the replica's, and comes back as is.
func (c *Client) failover(ctx context.Context, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error {
	n := len(c.endpoints)
	start := int(c.primary.Load()) % n
	var last error
	tried := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			if last != nil {
				return errAllReplicasDown(last)
			}
			return ctx.Err()
		}
		idx := (start + i) % n
		ep := c.endpoints[idx]
		if !ep.breaker.Allow() {
			continue
		}
		tried++
		cctx, cancel := context.WithTimeout(ctx, c.haOpts.PerTryTimeout)
		err := c.orb.CallOpts(cctx, ep.ref, op, args, reply, c.opts)
		cancel()
		if err != nil && ctx.Err() != nil {
			ep.breaker.Abandon()
			return err
		}
		if err == nil || !failoverErr(err) {
			// Success, or an authoritative answer from a live replica.
			ep.breaker.Success()
			if prev := c.primary.Swap(int64(idx)); int(prev)%n != idx {
				if fn, ok := c.onFailover.Load().(func(addr string)); ok && fn != nil {
					go fn(ep.ref.Addr)
				}
			}
			if c.degraded.CompareAndSwap(true, false) {
				c.haOpts.Logger.Info("naming: control plane reachable again, leaving degraded mode", "endpoint", ep.ref.Addr)
			}
			return err
		}
		ep.breaker.Failure()
		c.failovers.Add(1)
		c.haOpts.Logger.Warn("naming: endpoint failed, trying next replica",
			"op", op, "endpoint", ep.ref.Addr, "err", err)
		last = err
	}
	if tried == 0 {
		// Every breaker is open and no cooldown has elapsed: same outcome
		// as all replicas refusing, without paying connect timeouts.
		last = errors.New("all endpoint breakers open")
	}
	return errAllReplicasDown(last)
}

// degradedResolve finishes a replicated client's Resolve: an answer
// refreshes the cache; with all replicas down (failover's COMM_FAILURE)
// the last-known reference is served in degraded mode.
func (c *Client) degradedResolve(name Name, ref orb.ObjectRef, ttl time.Duration, err error) (orb.ObjectRef, error) {
	if err == nil {
		c.cachePut(name, ref, ttl)
		return ref, nil
	}
	if !orb.IsCommFailure(err) {
		// An authoritative answer, or the caller's own context ending.
		return orb.ObjectRef{}, err
	}
	cached, stale, ok := c.cacheGet(name)
	if !ok {
		c.resolveErrors.Add(1)
		return orb.ObjectRef{}, err
	}
	c.degradedServes.Add(1)
	if stale {
		// The entry outlived the lease TTL it was cached with: the
		// server behind it may have lost its registration since.
		// Serve it anyway — it is the only lead we have with the
		// whole control plane down — but flag it.
		c.staleServes.Add(1)
		c.haOpts.Logger.Warn("naming: serving cached reference past its lease TTL",
			"name", name.String(), "addr", cached.Addr)
	}
	if c.degraded.CompareAndSwap(false, true) {
		c.haOpts.Logger.Warn("naming: all replicas down, serving cached references (degraded mode)")
	}
	return cached, nil
}

func (c *Client) cachePut(name Name, ref orb.ObjectRef, ttl time.Duration) {
	k := name.String()
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if _, ok := c.cache[k]; !ok {
		c.cacheFF = append(c.cacheFF, k)
		for len(c.cacheFF) > haCacheSize {
			delete(c.cache, c.cacheFF[0])
			c.cacheFF = c.cacheFF[1:]
		}
	}
	c.cache[k] = haCacheEntry{ref: ref, ttl: ttl, at: c.haOpts.Clock()}
}

// cacheGet returns the cached reference for name and whether it has
// outlived the lease TTL it was resolved with (leaseless entries never
// go stale).
func (c *Client) cacheGet(name Name) (ref orb.ObjectRef, stale, ok bool) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	ent, ok := c.cache[name.String()]
	if !ok {
		return orb.ObjectRef{}, false, false
	}
	stale = ent.ttl > 0 && c.haOpts.Clock().After(ent.at.Add(ent.ttl))
	return ent.ref, stale, true
}
