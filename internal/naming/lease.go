package naming

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orb"
)

// Lease plumbing: offers bound with a TTL must be renewed or the
// registry's sweeper unbinds them. The lease is the heartbeat: a server
// that died silently, or can no longer reach the naming service, stops
// renewing and its offer expires. A dead server that a client trips over
// first leaves sooner, through the FT proxy's recovery unbind — either
// way the registry stops handing out the reference.

// SweeperOptions tune a Sweeper.
type SweeperOptions struct {
	// Period is the sweep interval (default 500ms).
	Period time.Duration
}

// Sweeper periodically expires leased offers from a Registry.
type Sweeper struct {
	reg  *Registry
	opts SweeperOptions

	evicted  atomic.Uint64
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
	mu       sync.Mutex
}

// NewSweeper builds a sweeper over reg.
func NewSweeper(reg *Registry, opts SweeperOptions) *Sweeper {
	if opts.Period <= 0 {
		opts.Period = 500 * time.Millisecond
	}
	return &Sweeper{reg: reg, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
}

// Evicted returns the total number of offers the sweeper has unbound —
// exported by the nameserver as naming_offers_evicted_total.
func (s *Sweeper) Evicted() uint64 { return s.evicted.Load() }

// Step runs one sweep and returns what was evicted.
func (s *Sweeper) Step() []ExpiredOffer {
	evicted := s.reg.ExpireOffers()
	for _, ev := range evicted {
		s.evicted.Add(1)
		slog.Info("naming: lease expired, offer evicted",
			"name", ev.Name.String(), "host", ev.Offer.Host,
			"addr", ev.Offer.Ref.Addr, "ttl", ev.Offer.LeaseTTL.String())
	}
	return evicted
}

// Start launches the periodic sweep loop. Start is idempotent.
func (s *Sweeper) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.opts.Period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Step()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the sweep loop and waits for it to exit.
func (s *Sweeper) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
}

// LeaseRenewer keeps one offer's lease alive: it renews at TTL/3 (so two
// renewals can be lost before the lease lapses) and re-registers the
// offer when the registry reports it evicted (NotFound).
type LeaseRenewer struct {
	ns   *Client
	name Name
	ref  orb.ObjectRef
	host string
	ttl  time.Duration

	renewals atomic.Uint64
	rebinds  atomic.Uint64
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartLeaseRenewer launches the renewal loop for an offer already bound
// with BindOfferLease(..., ttl). ns may be replicated (NewHAClient), so the
// lease survives nameserver failover.
func StartLeaseRenewer(ns *Client, name Name, ref orb.ObjectRef, host string, ttl time.Duration) *LeaseRenewer {
	r := &LeaseRenewer{
		ns: ns, name: name, ref: ref, host: host, ttl: ttl,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go r.loop()
	return r
}

// Renewals returns how many successful renew calls the loop has made.
func (r *LeaseRenewer) Renewals() uint64 { return r.renewals.Load() }

// Rebinds returns how many times the loop re-registered an evicted offer.
func (r *LeaseRenewer) Rebinds() uint64 { return r.rebinds.Load() }

// Stop halts the renewal loop; the lease then lapses after at most TTL.
func (r *LeaseRenewer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *LeaseRenewer) loop() {
	defer close(r.done)
	period := r.ttl / 3
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.renewOnce(period)
		case <-r.stop:
			return
		}
	}
}

// renewOnce performs one renewal attempt, re-binding if evicted.
func (r *LeaseRenewer) renewOnce(period time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), period)
	defer cancel()
	err := r.ns.RenewLease(ctx, r.name, r.ref, r.ttl)
	if err == nil {
		r.renewals.Add(1)
		return
	}
	if orb.IsUserException(err, ExNotFound) {
		// The sweeper (or an operator) unbound the offer: re-register. The
		// server is demonstrably alive — it is running this loop.
		if berr := r.ns.BindOfferLease(ctx, r.name, r.ref, r.host, r.ttl); berr == nil {
			r.rebinds.Add(1)
		}
		return
	}
	// Transient naming failure: the next tick retries; the TTL/3 cadence
	// tolerates two consecutive losses.
	slog.Debug("naming: lease renewal failed", "name", r.name.String(), "err", err)
}
