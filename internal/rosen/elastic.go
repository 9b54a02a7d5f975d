package rosen

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/cdr"
	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/opt"
	"repro/internal/orb"
)

// errInterrupted aborts a segment whose membership epoch ended mid-run;
// the elastic loop discards the partial result and re-decomposes.
var errInterrupted = errors.New("rosen: segment interrupted by membership change")

// rebalanceGrace is how long a failed segment waits for membership to
// change before retrying against an unchanged pool.
const rebalanceGrace = 2 * time.Second

// ElasticOptions configure elastic re-decomposition: the manager
// subscribes to the cluster membership view and, on worker Join/Leave,
// checkpoints boundary state, recomputes the decomposition for the new
// width and rebalances the subproblems mid-run.
//
// Determinism contract: every segment restarts the full bilevel
// optimization from Config.Seed at the current width, and workers are
// reset to their initial state at each segment start (Proxy.Seed with an
// empty checkpoint). An interrupted segment's partial result is
// discarded, so the final, uninterrupted segment is indistinguishable —
// bitwise — from a fixed-pool run at the final width.
type ElasticOptions struct {
	// Membership is the cluster view whose Join/Leave events drive
	// re-decomposition (required).
	Membership *cluster.Membership
	// MinWorkers is the smallest width worth running (default 1). Below
	// it the manager parks and waits for capacity.
	MinWorkers int
	// MaxWorkers caps the width (default and hard cap: opt.MaxWorkers(N),
	// the decomposition's structural limit).
	MaxWorkers int
	// Proactive attaches one ft.Migrator per worker proxy each segment;
	// Degrading events then move checkpointed state to a healthy host
	// before the source dies, without interrupting the segment.
	Proactive bool
	// MigrateOptions extend the per-segment proactive migrators (offer
	// source, target filter, claimer, ...). MigrateMembership is added
	// automatically.
	MigrateOptions []ft.MigrateOption
	// Logger records segment transitions.
	Logger *slog.Logger
	// OnSegment, when set, observes each segment start with its ordinal
	// and width. Tests use it to inject membership changes mid-run.
	OnSegment func(segment, workers int)
}

// ElasticStats report an elastic run's shape.
type ElasticStats struct {
	// Segments is the number of segments started (including interrupted
	// and failed ones).
	Segments int
	// Interrupts counts segments aborted by a mid-run membership change.
	Interrupts int
	// Retries counts segments that failed with a real error and were
	// retried after re-placement.
	Retries int
	// Proactive sums Degrading-triggered migrations across all segments.
	Proactive uint64
	// Migrations sums all migrations (reactive and proactive).
	Migrations int
	// FinalWorkers is the width of the segment that ran to completion.
	FinalWorkers int
	// ProxyStats accumulates fault-tolerance counters over every
	// placement the run went through (Manager.ProxyStats only covers the
	// current one).
	ProxyStats ft.Stats
}

// OfferReleaser is implemented by resolvers that hand out exclusive
// claims on offers; elastic teardown returns every placed reference
// through it so the next segment (or another manager) can claim them.
type OfferReleaser interface {
	Release(ref orb.ObjectRef)
}

// WithElastic switches Run to elastic mode. Requires WithFT (checkpoint/
// restore carries worker state across segments) and is incompatible with
// active replication.
func (m *Manager) WithElastic(opts ElasticOptions) *Manager {
	m.elastic = &opts
	return m
}

// ElasticStats returns a snapshot of the elastic run counters.
func (m *Manager) ElasticStats() ElasticStats {
	m.esMu.Lock()
	defer m.esMu.Unlock()
	return m.es
}

// Proxies returns the fault-tolerant proxies of the current placement
// (nil entries never occur; empty without WithFT or after teardown).
func (m *Manager) Proxies() []*ft.Proxy {
	var out []*ft.Proxy
	for _, h := range m.handles {
		if ph, ok := h.(proxyHandle); ok {
			out = append(out, ph.p)
		}
	}
	return out
}

// workerResetState is the CDR image of a freshly constructed worker
// (no warm simplex, zero solves); seeding it at segment start erases any
// warm-start state a previous segment left behind, which would otherwise
// perturb the deterministic restart.
func workerResetState() []byte {
	e := cdr.NewEncoder(16)
	e.PutFloat64Seq(nil)
	e.PutFloat64(0)
	e.PutInt64(0)
	return e.Bytes()
}

// width computes the segment width for the current membership: alive
// hosts clamped to [MinWorkers, MaxWorkers]; 0 (park) below the minimum.
func (m *Manager) width(min, max int) int {
	alive := m.elastic.Membership.AliveCount()
	if alive < min {
		return 0
	}
	if alive > max {
		return max
	}
	return alive
}

// runElastic is the segmented re-decomposition loop: pick a width from
// the membership view, run a full segment at it, and either return its
// result (no membership change interrupted it) or tear the placement
// down and go again at the new width.
func (m *Manager) runElastic(ctx context.Context) (*Result, error) {
	el := m.elastic
	if el.Membership == nil {
		return nil, errors.New("rosen: elastic mode requires ElasticOptions.Membership")
	}
	if m.ftOpts == nil {
		return nil, errors.New("rosen: elastic mode requires WithFT (checkpoints carry state across segments)")
	}
	if m.cfg.Replication > 1 {
		return nil, errors.New("rosen: elastic mode is incompatible with active replication")
	}
	minW := el.MinWorkers
	if minW < 1 {
		minW = 1
	}
	maxW := el.MaxWorkers
	if lim := opt.MaxWorkers(m.cfg.N); maxW <= 0 || maxW > lim {
		maxW = lim
	}
	if minW > maxW {
		return nil, fmt.Errorf("rosen: elastic MinWorkers %d > MaxWorkers %d", minW, maxW)
	}
	// One subscription for the whole run: segments poll width() to decide
	// interruption; the channel only wakes the park/retry waits.
	ch, cancel := el.Membership.Subscribe()
	defer cancel()
	defer m.teardown()

	noChange := 0
	for seg := 1; ; seg++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := m.width(minW, maxW)
		if w == 0 {
			// Not enough capacity — park until membership moves.
			if el.Logger != nil {
				el.Logger.Info("rosen: elastic run parked",
					"alive", el.Membership.AliveCount(), "min_workers", minW)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-ch:
			}
			seg--
			continue
		}
		drainEvents(ch)
		seqAtStart := el.Membership.Seq()
		res, err := m.runOneSegment(ctx, seg, w, minW, maxW)
		if res != nil {
			m.esMu.Lock()
			m.es.FinalWorkers = w
			m.esMu.Unlock()
			if el.Logger != nil {
				el.Logger.Info("rosen: elastic run converged",
					"segments", seg, "workers", w, "f", res.F)
			}
			return res, nil
		}
		if errors.Is(err, errInterrupted) {
			m.esMu.Lock()
			m.es.Interrupts++
			m.esMu.Unlock()
			if el.Logger != nil {
				el.Logger.Info("rosen: segment interrupted, re-decomposing",
					"segment", seg, "workers", w, "alive", el.Membership.AliveCount())
			}
			noChange = 0
			continue
		}
		if ctx.Err() != nil {
			return nil, err
		}
		// A real error (a worker died before its offer left the group, a
		// placement raced an expiring offer): retry freely as long as the
		// membership keeps changing; against an unchanged pool allow a few
		// grace-bounded retries, then surface the error.
		m.esMu.Lock()
		m.es.Retries++
		m.esMu.Unlock()
		if el.Logger != nil {
			el.Logger.Warn("rosen: segment failed, retrying", "segment", seg, "err", err)
		}
		if el.Membership.Seq() != seqAtStart {
			noChange = 0
			continue
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
			noChange = 0
		case <-time.After(rebalanceGrace):
			noChange++
			if noChange >= 3 {
				return nil, fmt.Errorf("rosen: elastic run failed with stable membership: %w", err)
			}
		}
	}
}

// runOneSegment places w workers, resets their state, optionally arms
// proactive migrators, and runs one segment. It returns (result, nil) on
// completion, (nil, errInterrupted) when membership changed mid-run, or
// (nil, err) on a real failure. The placement is torn down on every exit
// path, accumulating its stats.
func (m *Manager) runOneSegment(ctx context.Context, seg, w, minW, maxW int) (*Result, error) {
	el := m.elastic
	m.esMu.Lock()
	m.es.Segments++
	m.esMu.Unlock()
	if el.OnSegment != nil {
		el.OnSegment(seg, w)
	}
	if el.Logger != nil {
		el.Logger.Info("rosen: segment starting", "segment", seg, "workers", w)
	}
	defer m.teardown()
	if err := m.place(ctx, w); err != nil {
		return nil, err
	}
	// Deterministic restart: erase warm-start state live on every worker
	// AND in the checkpoint store, so mid-segment crash recovery cannot
	// resurrect a previous segment's state either.
	reset := workerResetState()
	for _, p := range m.Proxies() {
		if err := p.Seed(ctx, reset); err != nil {
			return nil, fmt.Errorf("rosen: reset worker state: %w", err)
		}
	}
	// Proactive migrators live exactly as long as the segment: a
	// Degrading host's worker moves its checkpointed state to a healthy
	// offer without interrupting the optimization.
	segCtx, cancelSeg := context.WithCancel(ctx)
	var migs []*ft.Migrator
	if el.Proactive {
		for _, p := range m.Proxies() {
			mopts := append([]ft.MigrateOption{ft.MigrateMembership(el.Membership)},
				el.MigrateOptions...)
			migs = append(migs, ft.NewMigrator(segCtx, p, mopts...))
		}
	}
	res, err := m.runSegment(ctx, w, func() bool {
		return m.width(minW, maxW) != w
	})
	cancelSeg()
	for _, mg := range migs {
		<-mg.Done()
	}
	m.esMu.Lock()
	for _, mg := range migs {
		m.es.Proactive += mg.Proactive()
		m.es.Migrations += mg.Migrations()
	}
	m.esMu.Unlock()
	return res, err
}

// teardown closes the current placement — accumulating each proxy's
// stats and releasing any exclusive offer claims — so the next segment
// places fresh.
func (m *Manager) teardown() {
	if m.handles == nil {
		return
	}
	rel, _ := m.resolver.(OfferReleaser)
	m.esMu.Lock()
	defer m.esMu.Unlock()
	for i, h := range m.handles {
		switch hh := h.(type) {
		case proxyHandle:
			ref := hh.p.Ref()
			s := hh.p.Stats()
			m.es.ProxyStats.Calls += s.Calls
			m.es.ProxyStats.Checkpoints += s.Checkpoints
			m.es.ProxyStats.CheckpointFailures += s.CheckpointFailures
			m.es.ProxyStats.Recoveries += s.Recoveries
			m.es.ProxyStats.Replays += s.Replays
			m.es.ProxyStats.CheckpointBytes += s.CheckpointBytes
			m.es.ProxyStats.DeltaCheckpoints += s.DeltaCheckpoints
			if rel != nil {
				rel.Release(ref)
			}
		case plainHandle:
			if rel != nil {
				rel.Release(hh.ref)
			}
		default:
			if rel != nil && i < len(m.refs) {
				rel.Release(m.refs[i])
			}
		}
	}
	m.handles, m.refs = nil, nil
}

// drainEvents empties any queued membership events without blocking, so
// a segment decision reads current state rather than stale backlog.
func drainEvents(ch <-chan cluster.Event) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
