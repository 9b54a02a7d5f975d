// Elastic re-decomposition soak: a real workerd pool grows 4→12 and
// shrinks to 6 mid-run (process kills, lease expiry), the nameserver-side
// offer lifecycle drives the cluster membership view, a Degrading host's
// worker state is moved proactively — and the run still converges to the
// bitwise result of a fixed 6-worker pool, with zero replayed calls.
package integration

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// claimingResolver hands each proxy an exclusive worker offer (stateful
// servants must not be shared) and doubles as the migrator's Claimer and
// the elastic manager's OfferReleaser, so claims survive proactive moves
// and are returned at segment teardown.
type claimingResolver struct {
	inner *naming.Client

	mu    sync.Mutex
	inUse map[orb.ObjectRef]bool
}

func newClaimingResolver(inner *naming.Client) *claimingResolver {
	return &claimingResolver{inner: inner, inUse: make(map[orb.ObjectRef]bool)}
}

func (r *claimingResolver) Resolve(ctx context.Context, name naming.Name) (orb.ObjectRef, error) {
	for attempt := 0; attempt < 64; attempt++ {
		ref, err := r.inner.Resolve(ctx, name)
		if err != nil {
			return orb.ObjectRef{}, err
		}
		if r.Claim(ref) {
			return ref, nil
		}
	}
	return orb.ObjectRef{}, fmt.Errorf("no unclaimed worker offer")
}

func (r *claimingResolver) UnbindOffer(ctx context.Context, name naming.Name, ref orb.ObjectRef) error {
	r.Release(ref)
	return r.inner.UnbindOffer(ctx, name, ref)
}

// Claim implements ft.Claimer.
func (r *claimingResolver) Claim(ref orb.ObjectRef) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inUse[ref] {
		return false
	}
	r.inUse[ref] = true
	return true
}

// Release implements ft.Claimer and rosen.OfferReleaser.
func (r *claimingResolver) Release(ref orb.ObjectRef) {
	r.mu.Lock()
	delete(r.inUse, ref)
	r.mu.Unlock()
}

func (r *claimingResolver) claimed(ref orb.ObjectRef) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inUse[ref]
}

func (r *claimingResolver) claimedRefs() []orb.ObjectRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]orb.ObjectRef, 0, len(r.inUse))
	for ref := range r.inUse {
		out = append(out, ref)
	}
	return out
}

// elasticWorker is one workerd process of the pool.
type elasticWorker struct {
	host string
	ref  orb.ObjectRef
	cmd  *exec.Cmd
}

// startWorkerd launches one workerd announcing itself to nsSIOR as host
// with a leased group offer.
func startWorkerd(t *testing.T, nsSIOR, host string, ttl time.Duration) *elasticWorker {
	t.Helper()
	cmd, sior := startDaemonCmd(t, "workerd",
		"-addr", "127.0.0.1:0", "-ns", nsSIOR, "-host", host, "-ttl", ttl.String())
	ref, err := orb.RefFromString(sior)
	if err != nil {
		t.Fatal(err)
	}
	return &elasticWorker{host: host, ref: ref, cmd: cmd}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// proactiveMoveLanded reports whether the ring holds a completed
// proactive-migration span (one that actually chose a target).
func proactiveMoveLanded(ring *obs.Ring) (string, bool) {
	for _, sp := range ring.Spans() {
		if sp.Name() != "ft.migrate.proactive" {
			continue
		}
		if to, ok := sp.Attr("to_host"); ok && to != "" {
			return to, true
		}
	}
	return "", false
}

func TestElasticScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic soak needs real processes and lease expiry waits")
	}
	ring := obs.NewRing(1 << 16)
	old := obs.Default()
	obs.SetDefault(obs.NewTracer("elastic-soak", obs.WithRing(ring)))
	t.Cleanup(func() { obs.SetDefault(old) })

	const leaseTTL = 2 * time.Second

	// In-process naming service with a lease sweeper; the offer lifecycle
	// (first bound offer = Join, last gone = Leave, including sweeper
	// evictions after a kill) is the only thing feeding the membership
	// view — exactly the nameserver -elastic wiring.
	services := orb.New(orb.Options{Name: "elastic-services"})
	t.Cleanup(services.Shutdown)
	ad, err := services.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := naming.NewRegistry()
	membership := cluster.NewMembership(
		cluster.WithDegradeTrend(0.5), cluster.WithDegradeSamples(2))
	tracker := membership.TrackOffers("naming")
	reg.SetOfferObserver(func(n naming.Name, o naming.Offer, bound bool) {
		if bound {
			tracker.Bound(o.Host)
		} else {
			tracker.Unbound(o.Host)
		}
	})
	nsRef := ad.Activate(naming.DefaultKey, naming.NewServant(reg, naming.RoundRobinSelector()))
	nsSIOR := nsRef.ToString()
	sweeper := naming.NewSweeper(reg, naming.SweeperOptions{Period: 100 * time.Millisecond})
	sweeper.Start()
	t.Cleanup(sweeper.Stop)

	// Phase A pool: 4 workerd processes with leased offers.
	hostOf := make(map[orb.ObjectRef]string)
	var workers []*elasticWorker
	spawn := func(host string) {
		w := startWorkerd(t, nsSIOR, host, leaseTTL)
		workers = append(workers, w)
		hostOf[w.ref] = host
	}
	for i := 1; i <= 4; i++ {
		spawn(fmt.Sprintf("w%02d", i))
	}
	waitUntil(t, "initial pool of 4", 10*time.Second,
		func() bool { return membership.AliveCount() == 4 })

	client := orb.New(orb.Options{Name: "elastic-client"})
	t.Cleanup(client.Shutdown)
	nsClient := naming.NewClient(client, nsRef)
	resolver := newClaimingResolver(nsClient)

	storeSIOR, _ := startCheckpointd(t, t.TempDir())
	storeRef, err := orb.RefFromString(storeSIOR)
	if err != nil {
		t.Fatal(err)
	}
	store := ft.NewStoreClient(client, storeRef)

	cfg := rosen.Config{
		N:                 30,
		WorkerIterations:  40,
		ManagerIterations: 6,
		Seed:              7,
		EvalCost:          1e-4,
	}
	// Recovery is off: the elastic loop owns failure handling (a dead
	// worker fails its segment, membership change re-places), so nothing
	// is ever replayed — the acceptance criterion the trace must show.
	policy := ft.Policy{CheckpointEvery: 1, RecoverOn: func(error) bool { return false }}

	const phaseGrow, phaseDegrade, phaseDone = 0, 1, 2
	phase := phaseGrow
	var curSeg, curWidth int
	var degradedHost, migratedTo string
	cfg.AfterRound = func(round int) {
		switch {
		case phase == phaseGrow && round >= 2:
			// Grow the pool 4→12 mid-segment. The width clamps to
			// MaxWorkers=8, leaving four unclaimed spares for migration.
			for i := 5; i <= 12; i++ {
				spawn(fmt.Sprintf("w%02d", i))
			}
			waitUntil(t, "grown pool of 12", 15*time.Second,
				func() bool { return membership.AliveCount() == 12 })
			phase = phaseDegrade
		case phase == phaseDegrade && curSeg >= 2 && curWidth == 8 && round >= 2:
			// Pick a claimed host and collapse its load trend: peak 2.0,
			// then two samples below trend → Degrading → the segment's
			// migrator moves its checkpointed state to a healthy spare
			// without interrupting the optimization.
			for _, ref := range resolver.claimedRefs() {
				if h, ok := hostOf[ref]; ok && (degradedHost == "" || h < degradedHost) {
					degradedHost = h
				}
			}
			if degradedHost == "" {
				t.Fatal("no claimed host to degrade")
			}
			membership.ReportLoad(degradedHost, 2.0, "winner")
			membership.ReportLoad(degradedHost, 0.2, "winner")
			membership.ReportLoad(degradedHost, 0.2, "winner")
			waitUntil(t, "proactive migration", 15*time.Second, func() bool {
				var ok bool
				migratedTo, ok = proactiveMoveLanded(ring)
				return ok
			})
			// Shrink 12→6: kill the degraded host plus the five highest-
			// numbered others (sparing the migration target). Their leases
			// lapse, the sweeper unbinds, and the tracker turns each death
			// into exactly one Leave.
			var victims []*elasticWorker
			for i := len(workers) - 1; i >= 0 && len(victims) < 5; i-- {
				w := workers[i]
				if w.host == degradedHost || w.host == migratedTo {
					continue
				}
				victims = append(victims, w)
			}
			for _, w := range workers {
				if w.host == degradedHost {
					victims = append(victims, w)
				}
			}
			for _, w := range victims {
				_ = w.cmd.Process.Kill()
			}
			phase = phaseDone
		}
	}

	m := rosen.NewManager(client, resolver, cfg).
		WithFT(rosen.FTOptions{Store: store, Policy: policy, Unbinder: nsClient}).
		WithElastic(rosen.ElasticOptions{
			Membership: membership,
			MinWorkers: 2,
			MaxWorkers: 8,
			Proactive:  true,
			MigrateOptions: []ft.MigrateOption{
				ft.MigrateOffers(nsClient),
				ft.MigrateClaims(resolver),
				ft.MigrateTargetFilter(func(o naming.Offer) bool {
					return !resolver.claimed(o.Ref)
				}),
			},
			OnSegment: func(seg, w int) { curSeg, curWidth = seg, w },
		})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := m.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if phase != phaseDone {
		t.Fatalf("fault script incomplete: phase %d", phase)
	}

	es := m.ElasticStats()
	if es.FinalWorkers != 6 {
		t.Fatalf("final width = %d, want 6 (stats %+v)", es.FinalWorkers, es)
	}
	if es.Segments < 3 || es.Interrupts < 1 {
		t.Fatalf("elastic stats %+v: want ≥3 segments with ≥1 interrupt", es)
	}
	if es.Proactive < 1 {
		t.Fatalf("ft_proactive_migrations_total = %d, want ≥ 1", es.Proactive)
	}
	// The acceptance criterion: proactive moves carry state via
	// checkpoints, reactive recovery is disabled, so across the whole run
	// — kills included — not one call was replayed.
	if es.ProxyStats.Replays != 0 || es.ProxyStats.Recoveries != 0 {
		t.Fatalf("run replayed calls: %+v", es.ProxyStats)
	}
	for _, sp := range ring.Spans() {
		if sp.Name() == "replay" {
			t.Fatalf("replay span in the trace: %+v", sp)
		}
	}

	// Baseline: a fixed 6-worker pool of fresh workerd processes under a
	// separate registry, same seed and config. Bitwise equality is the
	// determinism contract of elastic re-decomposition.
	reg2 := naming.NewRegistry()
	ns2Ref := ad.Activate("naming-baseline", naming.NewServant(reg2, naming.RoundRobinSelector()))
	for i := 1; i <= 6; i++ {
		startWorkerd(t, ns2Ref.ToString(), fmt.Sprintf("b%02d", i), 0)
	}
	ns2Client := naming.NewClient(client, ns2Ref)
	store2SIOR, _ := startCheckpointd(t, t.TempDir())
	store2Ref, err := orb.RefFromString(store2SIOR)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Workers = 6
	cfg2.AfterRound = nil
	fixed, err := rosen.NewManager(client, newClaimingResolver(ns2Client), cfg2).
		WithFT(rosen.FTOptions{Store: ft.NewStoreClient(client, store2Ref), Policy: policy}).
		Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.F != fixed.F || res.Rounds != fixed.Rounds {
		t.Fatalf("elastic F/rounds %v/%d != fixed %v/%d", res.F, res.Rounds, fixed.F, fixed.Rounds)
	}
	if len(res.Boundary) != len(fixed.Boundary) || len(res.X) != len(fixed.X) {
		t.Fatalf("result shapes differ: boundary %d/%d, x %d/%d",
			len(res.Boundary), len(fixed.Boundary), len(res.X), len(fixed.X))
	}
	for i := range res.Boundary {
		if res.Boundary[i] != fixed.Boundary[i] {
			t.Fatalf("boundary[%d]: %v != %v", i, res.Boundary[i], fixed.Boundary[i])
		}
	}
	for i := range res.X {
		if res.X[i] != fixed.X[i] {
			t.Fatalf("x[%d]: %v != %v", i, res.X[i], fixed.X[i])
		}
	}

	if path := os.Getenv("ELASTIC_ARTIFACT"); path != "" {
		artifact := map[string]any{
			"scenario":       "elastic_scale_soak",
			"pool_phases":    []int{4, 12, 6},
			"segments":       es.Segments,
			"interrupts":     es.Interrupts,
			"retries":        es.Retries,
			"proactive":      es.Proactive,
			"migrations":     es.Migrations,
			"final_workers":  es.FinalWorkers,
			"degraded_host":  degradedHost,
			"migrated_to":    migratedTo,
			"replays":        es.ProxyStats.Replays,
			"recoveries":     es.ProxyStats.Recoveries,
			"checkpoints":    es.ProxyStats.Checkpoints,
			"f":              res.F,
			"rounds":         res.Rounds,
			"bitwise_match":  true,
			"worker_calls":   res.WorkerCalls,
			"fixed_baseline": map[string]any{"f": fixed.F, "rounds": fixed.Rounds},
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("ELASTIC_ARTIFACT: %v", err)
		}
		t.Logf("elastic artifact written to %s", path)
	}
}
