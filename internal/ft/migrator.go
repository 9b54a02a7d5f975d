package ft

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

// OfferLister reads the offers of a group binding (naming.Client
// satisfies it).
type OfferLister interface {
	ListOffers(ctx context.Context, name naming.Name) ([]naming.Offer, error)
}

// RankedLoads provides per-host effective speeds for migration decisions.
// The in-process winner.Manager satisfies it; callers consulting a remote
// system manager wrap winner.Client with their own context/timeout policy.
type RankedLoads interface {
	HostEffectiveSpeed(host string) (float64, bool)
}

// Claimer coordinates exclusive ownership of offers between proxies
// sharing one group binding: Claim must atomically reserve ref (returning
// false when another owner holds it), Release returns it to the pool. A
// migrator with a Claimer only migrates onto targets it wins, and
// releases the source once the move lands.
type Claimer interface {
	Claim(ref orb.ObjectRef) bool
	Release(ref orb.ObjectRef)
}

// MigrateOption customizes a Migrator, mirroring the option style of
// orb.Call.
type MigrateOption func(*Migrator)

// MigrateOffers sets the offer source the migrator picks targets from.
func MigrateOffers(l OfferLister) MigrateOption {
	return func(m *Migrator) { m.offers = l }
}

// MigrateLoads supplies Winner load data for ranking candidate hosts.
func MigrateLoads(r RankedLoads) MigrateOption {
	return func(m *Migrator) { m.ranker = r }
}

// MigrateMinImprovement sets the factor by which a candidate host's
// effective speed must beat the current host's before a load-triggered
// Step migrates (default 1.5 — migration costs a checkpoint transfer, so
// don't chase noise). Proactive moves off a Degrading host ignore it: the
// source is going away, any healthy target beats staying.
func MigrateMinImprovement(f float64) MigrateOption {
	return func(m *Migrator) {
		if f > 1 {
			m.minImprovement = f
		}
	}
}

// MigrateMembership subscribes the migrator to the cluster membership
// view: a Degrading event for the proxy's current host triggers a
// proactive move to a healthy host while the source can still checkpoint
// — the trace then shows zero replayed calls, unlike reactive recovery.
// The watch goroutine runs until the constructor ctx is cancelled.
func MigrateMembership(ms *cluster.Membership) MigrateOption {
	return func(m *Migrator) { m.membership = ms }
}

// MigrateTargetFilter restricts candidate offers (e.g. to unclaimed
// spares). Offers for which ok returns false are never migration targets.
func MigrateTargetFilter(ok func(naming.Offer) bool) MigrateOption {
	return func(m *Migrator) { m.filter = ok }
}

// MigrateClaims makes the migrator claim targets through c before moving
// and release the source afterwards.
func MigrateClaims(c Claimer) MigrateOption {
	return func(m *Migrator) { m.claimer = c }
}

// Migrator implements the paper's load-triggered migration extension
// ("it is in principle possible to migrate a service from one host to
// another one ... also due to a changing load situation"), in two modes:
// pull-based reassessment (Step compares the current host against the
// other offers using Winner load data and migrates when a sufficiently
// better host exists) and, with MigrateMembership, push-based proactive
// migration — a Degrading event for the current host moves the service's
// checkpointed state to a healthy host before the source dies.
type Migrator struct {
	proxy          *Proxy
	offers         OfferLister
	ranker         RankedLoads
	membership     *cluster.Membership
	filter         func(naming.Offer) bool
	claimer        Claimer
	minImprovement float64

	// migrateMu serializes whole migration decisions so a Step racing a
	// Degrading event cannot move the proxy twice.
	migrateMu sync.Mutex

	migrations atomic.Uint64
	proactive  atomic.Uint64

	done chan struct{}
}

// NewMigrator builds a migrator for proxy. ctx bounds the optional
// membership watch goroutine (started when MigrateMembership is given);
// cancelling it stops proactive migration. Step remains callable
// regardless.
func NewMigrator(ctx context.Context, proxy *Proxy, opts ...MigrateOption) *Migrator {
	m := &Migrator{proxy: proxy, minImprovement: 1.5, done: make(chan struct{})}
	for _, opt := range opts {
		opt(m)
	}
	if m.membership != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		ch, cancel := m.membership.Subscribe()
		go m.watch(ctx, ch, cancel)
	} else {
		close(m.done)
	}
	return m
}

// Migrations returns the total number of migrations performed (reactive
// and proactive).
func (m *Migrator) Migrations() int { return int(m.migrations.Load()) }

// Proactive returns the number of proactive (Degrading-triggered)
// migrations performed.
func (m *Migrator) Proactive() uint64 { return m.proactive.Load() }

// Done is closed when the membership watch goroutine has exited (tests
// and teardown synchronization).
func (m *Migrator) Done() <-chan struct{} { return m.done }

// ExportMetrics registers the migration counters on reg.
func (m *Migrator) ExportMetrics(reg *obs.Registry) {
	reg.NewCounterFunc("ft_migrations_total",
		"Service-state migrations performed (reactive and proactive).",
		func() uint64 { return m.migrations.Load() })
	reg.NewCounterFunc("ft_proactive_migrations_total",
		"Proactive migrations triggered by membership Degrading events.",
		m.Proactive)
}

// watch consumes membership events and reacts to Degrading on the
// proxy's current host.
func (m *Migrator) watch(ctx context.Context, ch <-chan cluster.Event, cancel func()) {
	defer close(m.done)
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.Kind != cluster.Degrading {
				continue
			}
			if _, err := m.MoveOff(ctx, ev.Host); err != nil {
				slog.Warn("ft: proactive migration failed",
					"host", ev.Host, "trend", ev.Trend, "err", err)
			}
		}
	}
}

// MoveOff proactively migrates the service away from host if that is
// where it currently runs, onto the best healthy offer. Unlike Step it
// applies no improvement threshold — the source is degrading, any healthy
// target beats staying. It returns the chosen host ("" if the proxy was
// not on host, or no healthy target exists).
func (m *Migrator) MoveOff(ctx context.Context, host string) (string, error) {
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	if m.offers == nil {
		return "", nil
	}
	cur := m.proxy.Ref()
	offers, err := m.offers.ListOffers(ctx, m.proxy.name)
	if err != nil {
		return "", fmt.Errorf("ft: migrator: list offers: %w", err)
	}
	curHost := ""
	for _, o := range offers {
		if o.Ref == cur {
			curHost = o.Host
		}
	}
	if curHost != host {
		return "", nil
	}
	ctx, span := obs.StartSpan(ctx, "ft.migrate.proactive",
		obs.String("name", m.proxy.name.String()), obs.String("from_host", host))
	target, targetHost := m.pickTarget(cur, curHost, offers, false)
	if targetHost == "" {
		span.SetAttr("no_target", "true")
		span.End()
		return "", nil
	}
	if err := m.moveTo(ctx, cur, target); err != nil {
		span.EndErr(err)
		return "", err
	}
	m.proactive.Add(1)
	span.SetAttr("to_host", targetHost)
	span.End()
	slog.Info("ft: proactive migration",
		"name", m.proxy.name.String(), "from", host, "to", targetHost)
	return targetHost, nil
}

// Step reassesses placement once: if another offer's host is at least
// MinImprovement times faster than the current one, the service state is
// migrated there. It returns the new host name ("" if no migration
// happened).
func (m *Migrator) Step(ctx context.Context) (string, error) {
	m.migrateMu.Lock()
	defer m.migrateMu.Unlock()
	if m.offers == nil || m.ranker == nil {
		return "", nil
	}
	cur := m.proxy.Ref()
	offers, err := m.offers.ListOffers(ctx, m.proxy.name)
	if err != nil {
		return "", fmt.Errorf("ft: migrator: list offers: %w", err)
	}
	var curHost string
	for _, o := range offers {
		if o.Ref == cur {
			curHost = o.Host
		}
	}
	if curHost == "" {
		// The current reference is not among the offers (e.g. its offer
		// was unbound); nothing to compare against.
		return "", nil
	}
	curEff, ok := m.ranker.HostEffectiveSpeed(curHost)
	if !ok {
		return "", nil
	}
	target, targetHost := m.pickTarget(cur, curHost, offers, true)
	if targetHost == "" {
		return "", nil
	}
	eff, _ := m.ranker.HostEffectiveSpeed(targetHost)
	if eff < curEff*m.minImprovement {
		return "", nil
	}
	if err := m.moveTo(ctx, cur, target); err != nil {
		return "", err
	}
	return targetHost, nil
}

// pickTarget chooses the best candidate offer: not the current reference,
// passing the filter, on a healthy host (when a membership view is
// attached), ranked by effective speed when load data is available
// (rankRequired demands it), ties broken by host name for determinism.
func (m *Migrator) pickTarget(cur orb.ObjectRef, curHost string, offers []naming.Offer, rankRequired bool) (naming.Offer, string) {
	var best naming.Offer
	bestEff := -1.0
	for _, o := range offers {
		if o.Ref == cur || o.Host == "" || o.Host == curHost {
			continue
		}
		if m.filter != nil && !m.filter(o) {
			continue
		}
		if m.membership != nil && !m.membership.Healthy(o.Host) {
			continue
		}
		eff := 0.0
		if m.ranker != nil {
			e, ok := m.ranker.HostEffectiveSpeed(o.Host)
			if !ok {
				if rankRequired {
					continue
				}
			} else {
				eff = e
			}
		}
		if best.Host == "" || eff > bestEff || (eff == bestEff && o.Host < best.Host) {
			best, bestEff = o, eff
		}
	}
	return best, best.Host
}

// moveTo claims target (when a Claimer is configured), migrates the
// proxy's checkpointed state onto it, and releases the source claim.
func (m *Migrator) moveTo(ctx context.Context, cur orb.ObjectRef, target naming.Offer) error {
	if m.claimer != nil {
		if !m.claimer.Claim(target.Ref) {
			return fmt.Errorf("ft: migrator: target %s already claimed", target.Ref.Addr)
		}
	}
	if err := m.proxy.Migrate(ctx, target.Ref); err != nil {
		if m.claimer != nil {
			m.claimer.Release(target.Ref)
		}
		return fmt.Errorf("ft: migrator: %w", err)
	}
	if m.claimer != nil {
		m.claimer.Release(cur)
	}
	m.migrations.Add(1)
	return nil
}
