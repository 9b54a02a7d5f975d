package integration

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// The chaos soak: a Rosenbrock manager drives three FT worker proxies to
// convergence while a fault script kills workers, partitions the naming
// service during recovery, delays the checkpoint path, and crashes one of
// three checkpointd replicas. The run must produce bit-identical results
// to a fault-free run of the same seed: checkpoint/restore rewinds a
// recovered worker to exactly its pre-fault state, and replayed solves
// carry the same per-round seeds, so no injected fault may change the
// optimizer's trajectory — only its wall-clock time.
//
// Fault placement is deliberate: faults that only affect timing and
// routing (dial refusal, delay, process crash) are injected freely, but
// no corruption or write-drop rules are placed on data routes — those
// faults are exercised in internal/faultnet's unit tests, while this soak
// asserts exact result equality, which silent payload mutation would (by
// design) break loudly rather than subtly.

// chaosSeed fixes both the optimizer seed and the fault transport PRNG.
const chaosSeed = 11

// soakConfig is the workload both runs share.
func soakConfig() rosen.Config {
	return rosen.Config{
		N:                 30,
		Workers:           3,
		WorkerIterations:  40,
		ManagerIterations: 6,
		Seed:              chaosSeed,
		Lo:                -2.048,
		Hi:                2.048,
	}
}

// epochGuard wraps the checkpoint store and records any epoch
// regression: a Put acked at an epoch not above the highest previously
// acked for its key, or a Get serving an epoch below it.
type epochGuard struct {
	inner ft.Store

	mu         sync.Mutex
	acked      map[string]uint64
	violations []string
}

func newEpochGuard(inner ft.Store) *epochGuard {
	return &epochGuard{inner: inner, acked: make(map[string]uint64)}
}

func (g *epochGuard) Put(ctx context.Context, key string, cp ft.Checkpoint) error {
	if err := g.inner.Put(ctx, key, cp); err != nil {
		return err
	}
	g.mu.Lock()
	if cp.Epoch <= g.acked[key] {
		g.violations = append(g.violations,
			fmt.Sprintf("put %q epoch %d acked after epoch %d", key, cp.Epoch, g.acked[key]))
	} else {
		g.acked[key] = cp.Epoch
	}
	g.mu.Unlock()
	return nil
}

func (g *epochGuard) Get(ctx context.Context, key string) (ft.Checkpoint, error) {
	cp, err := g.inner.Get(ctx, key)
	if err != nil {
		return cp, err
	}
	g.mu.Lock()
	if cp.Epoch < g.acked[key] {
		g.violations = append(g.violations,
			fmt.Sprintf("get %q served epoch %d after epoch %d was acked", key, cp.Epoch, g.acked[key]))
	}
	g.mu.Unlock()
	return cp, nil
}

func (g *epochGuard) Delete(ctx context.Context, key string) error {
	return g.inner.Delete(ctx, key)
}

func (g *epochGuard) Keys(ctx context.Context) ([]string, error) {
	return g.inner.Keys(ctx)
}

func (g *epochGuard) report() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.violations...)
}

func (g *epochGuard) ackedEpoch(key string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.acked[key]
}

// exclusiveResolver hands each proxy a servant no other proxy holds.
// Worker servants are stateful (warm starts), so two proxies sharing one
// would interleave their state histories and diverge from the fault-free
// trajectory. Resolve cycles the naming service's round-robin selection
// until an unclaimed offer appears; UnbindOffer releases a dead claim.
type exclusiveResolver struct {
	inner *naming.Client

	mu    sync.Mutex
	inUse map[orb.ObjectRef]bool
}

func newExclusiveResolver(inner *naming.Client) *exclusiveResolver {
	return &exclusiveResolver{inner: inner, inUse: make(map[orb.ObjectRef]bool)}
}

func (r *exclusiveResolver) Resolve(ctx context.Context, name naming.Name) (orb.ObjectRef, error) {
	for attempt := 0; attempt < 64; attempt++ {
		ref, err := r.inner.Resolve(ctx, name)
		if err != nil {
			return orb.ObjectRef{}, err
		}
		r.mu.Lock()
		free := !r.inUse[ref]
		if free {
			r.inUse[ref] = true
		}
		r.mu.Unlock()
		if free {
			return ref, nil
		}
	}
	return orb.ObjectRef{}, errors.New("no unclaimed worker offer")
}

func (r *exclusiveResolver) UnbindOffer(ctx context.Context, name naming.Name, ref orb.ObjectRef) error {
	r.mu.Lock()
	delete(r.inUse, ref)
	r.mu.Unlock()
	return r.inner.UnbindOffer(ctx, name, ref)
}

// workerSlot is one live worker servant with its own server ORB, so a
// "workstation crash" is that ORB's shutdown: the listener closes and
// every in-flight connection dies.
type workerSlot struct {
	orb *orb.ORB
	ref orb.ObjectRef
}

// soakWorld is the full deployment of one soak run.
type soakWorld struct {
	t     *testing.T
	chaos *faultnet.Chaos

	// admin is a fault-free ORB for binding offers and inspecting stores.
	admin      *orb.ORB
	adminNames *naming.Client

	// client is the manager's ORB; all its dials go through the chaos
	// transport.
	client *orb.ORB

	resolver *exclusiveResolver
	guard    *epochGuard
	name     naming.Name

	namingAddr string
	storeAddrs []string
	storeCmds  []*exec.Cmd
	adminStore *ft.ReplicatedStore

	mu      sync.Mutex
	counter int
	slots   map[orb.ObjectRef]*workerSlot
}

// startCheckpointd launches a checkpointd replica and returns its SIOR
// and process handle (for crashing it mid-run).
func startCheckpointd(t *testing.T, dir string) (string, *exec.Cmd) {
	t.Helper()
	cmd, sior := startDaemonCmd(t, "checkpointd", "-addr", "127.0.0.1:0", "-dir", dir)
	return sior, cmd
}

func newSoakWorld(t *testing.T, chaos *faultnet.Chaos) *soakWorld {
	t.Helper()
	w := &soakWorld{
		t:     t,
		chaos: chaos,
		name:  naming.NewName(rosen.ServiceName),
		slots: make(map[orb.ObjectRef]*workerSlot),
	}

	// Naming service on its own ORB.
	services := orb.New(orb.Options{Name: "soak-services"})
	t.Cleanup(services.Shutdown)
	ad, err := services.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := naming.NewRegistry()
	nsRef := ad.Activate(naming.DefaultKey, naming.NewServant(reg, naming.RoundRobinSelector()))
	w.namingAddr = nsRef.Addr

	// Three checkpointd replicas as real processes with disk stores.
	storeRefs := make([]orb.ObjectRef, 3)
	for i := range storeRefs {
		sior, cmd := startCheckpointd(t, t.TempDir())
		ref, err := orb.RefFromString(sior)
		if err != nil {
			t.Fatal(err)
		}
		storeRefs[i] = ref
		w.storeAddrs = append(w.storeAddrs, ref.Addr)
		w.storeCmds = append(w.storeCmds, cmd)
	}

	// Admin plane: fault-free ORB for offer management and final
	// store inspection.
	w.admin = orb.New(orb.Options{Name: "soak-admin"})
	t.Cleanup(w.admin.Shutdown)
	w.adminNames = naming.NewClient(w.admin, nsRef)
	adminQuorum, err := ft.NewReplicatedStoreClient(w.admin, storeRefs)
	if err != nil {
		t.Fatal(err)
	}
	w.adminStore = adminQuorum

	// Manager plane: every dial goes through the chaos transport.
	w.client = orb.New(orb.Options{
		Name:        "soak-manager",
		Dialer:      chaos,
		CallTimeout: 20 * time.Second,
	})
	t.Cleanup(w.client.Shutdown)
	w.resolver = newExclusiveResolver(naming.NewClient(w.client, nsRef))
	managerQuorum, err := ft.NewReplicatedStoreClient(w.client, storeRefs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(managerQuorum.WaitRepairs)
	w.guard = newEpochGuard(managerQuorum)

	for i := 0; i < 3; i++ {
		w.spawnWorker()
	}
	return w
}

// spawnWorker starts a fresh worker servant on its own ORB and binds its
// offer into the group.
func (w *soakWorld) spawnWorker() *workerSlot {
	w.t.Helper()
	w.mu.Lock()
	w.counter++
	host := fmt.Sprintf("host-%d", w.counter)
	w.mu.Unlock()

	o := orb.New(orb.Options{Name: host})
	w.t.Cleanup(o.Shutdown)
	ad, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.t.Fatal(err)
	}
	ref := ad.Activate("worker", ft.Wrap(rosen.NewWorker(nil)))
	if err := w.adminNames.BindOffer(context.Background(), w.name, ref, host); err != nil {
		w.t.Fatal(err)
	}
	slot := &workerSlot{orb: o, ref: ref}
	w.mu.Lock()
	w.slots[ref] = slot
	w.mu.Unlock()
	return slot
}

// kill crashes the worker currently serving ref: a replacement offer is
// bound first (the cluster always has spare capacity), then the victim's
// ORB shuts down, so the proxy's next call fails and recovery re-resolves
// onto the fresh servant and restores the checkpoint.
func (w *soakWorld) kill(ref orb.ObjectRef) {
	w.t.Helper()
	w.mu.Lock()
	slot := w.slots[ref]
	delete(w.slots, ref)
	w.mu.Unlock()
	if slot == nil {
		w.t.Fatalf("no live worker serves %v", ref)
	}
	w.spawnWorker()
	slot.orb.Shutdown()
}

// run executes one full soak workload and returns the result plus
// aggregated proxy stats. faulty selects whether the fault script runs.
func (w *soakWorld) run(ctx context.Context, faulty bool) (*rosen.Result, ft.Stats, error) {
	cfg := soakConfig()
	var mgr *rosen.Manager // assigned below; AfterRound fires only inside mgr.Run

	if faulty {
		// The timed half of the fault script: the checkpoint path to one
		// replica is slowed for the first stretch of the run.
		script := faultnet.NewScript(
			faultnet.Step{At: 0, Note: "delay checkpoint path", Do: func() {
				w.chaos.SetRule(faultnet.Rule{
					Route: w.storeAddrs[1],
					Delay: 3 * time.Millisecond, Jitter: 2 * time.Millisecond,
				})
			}},
			faultnet.Step{At: 900 * time.Millisecond, Note: "heal checkpoint path", Do: func() {
				w.chaos.ClearRule(w.storeAddrs[1])
			}},
		)
		sctx, cancel := context.WithCancel(ctx)
		done := script.Run(sctx)
		defer func() { cancel(); <-done }()

		// The round-keyed half: worker kills and the naming partition are
		// anchored to optimizer rounds, so the faults land at the same
		// point of the trajectory on every run of the seed.
		killRounds := map[int]int{2: 0, 4: 1, 6: 2}
		cfg.AfterRound = func(round int) {
			idx, ok := killRounds[round]
			if !ok {
				return
			}
			delete(killRounds, round)
			victim := mgr.WorkerRefs()[idx%len(mgr.WorkerRefs())]
			w.mu.Lock()
			_, alive := w.slots[victim]
			w.mu.Unlock()
			if !alive {
				// The initial servant already died earlier; pick any live
				// claimed one instead.
				w.mu.Lock()
				for ref := range w.slots {
					w.resolver.mu.Lock()
					used := w.resolver.inUse[ref]
					w.resolver.mu.Unlock()
					if used {
						victim = ref
						break
					}
				}
				w.mu.Unlock()
			}
			if round == 2 {
				// Partition the naming service exactly while the recovery
				// triggered by this kill needs it; the retry budget rides
				// out the window. ResetProb tears down the pooled naming
				// connection, RefuseDial keeps redials out.
				w.chaos.SetRule(faultnet.Rule{Route: w.namingAddr, RefuseDial: 1, ResetProb: 1})
				time.AfterFunc(150*time.Millisecond, func() {
					w.chaos.ClearRule(w.namingAddr)
				})
			}
			if round == 4 {
				// Crash one of the three checkpointd replicas for good.
				_ = w.storeCmds[2].Process.Kill()
			}
			w.kill(victim)
		}
	}

	mgr = rosen.NewManager(w.client, w.resolver, cfg).WithFT(rosen.FTOptions{
		Store: w.guard,
		Policy: ft.Policy{
			CheckpointEvery:  1,
			StrictCheckpoint: true,
			MaxRecoveries:    10,
			Backoff:          orb.Backoff{Base: 20 * time.Millisecond, Max: 150 * time.Millisecond},
		},
		Unbinder: w.resolver,
	})
	res, err := mgr.Run(ctx)
	return res, mgr.ProxyStats(), err
}

func TestChaosSoak(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Fault-free reference run: same seed, same topology, chaos transport
	// installed but with no rules and no script.
	baselineWorld := newSoakWorld(t, faultnet.New(chaosSeed))
	baseline, baseStats, err := baselineWorld.run(ctx, false)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if baseStats.Recoveries != 0 || baseStats.Replays != 0 {
		t.Fatalf("fault-free run recovered: %+v", baseStats)
	}
	if regressions := baselineWorld.guard.report(); len(regressions) != 0 {
		t.Fatalf("fault-free run epoch regressions: %v", regressions)
	}

	// Chaos run.
	chaos := faultnet.New(chaosSeed)
	world := newSoakWorld(t, chaos)
	res, stats, err := world.run(ctx, true)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	// The optimizer's trajectory must be untouched by the faults: same
	// minimum, same boundary, same number of rounds and worker calls.
	if res.F != baseline.F {
		t.Fatalf("chaos F = %v, fault-free F = %v — faults changed the result", res.F, baseline.F)
	}
	if res.Rounds != baseline.Rounds || res.WorkerCalls != baseline.WorkerCalls {
		t.Fatalf("chaos rounds/calls = %d/%d, fault-free = %d/%d",
			res.Rounds, res.WorkerCalls, baseline.Rounds, baseline.WorkerCalls)
	}
	for i := range baseline.Boundary {
		if res.Boundary[i] != baseline.Boundary[i] {
			t.Fatalf("boundary[%d] = %v, fault-free %v", i, res.Boundary[i], baseline.Boundary[i])
		}
	}
	if res.F < 0 {
		t.Fatalf("negative objective %v", res.F)
	}

	// Zero checkpoint-epoch regressions.
	if regressions := world.guard.report(); len(regressions) != 0 {
		t.Fatalf("epoch regressions: %v", regressions)
	}

	// The kills actually happened and recovery fired — and replayed work
	// stays bounded: one replay per recovery, nothing runs away.
	if res.Rounds < 5 {
		t.Fatalf("only %d rounds — kill schedule never engaged", res.Rounds)
	}
	kills := 2 // rounds 2 and 4 certainly ran; round 6 may not have
	if res.Rounds >= 6 {
		kills = 3
	}
	if stats.Recoveries < uint64(kills) {
		t.Fatalf("recoveries = %d, want >= %d (stats %+v)", stats.Recoveries, kills, stats)
	}
	if stats.Replays > uint64(kills)*2 {
		t.Fatalf("replays = %d for %d kills — replayed work unbounded (stats %+v)", stats.Replays, kills, stats)
	}
	if stats.CheckpointFailures != 0 {
		t.Fatalf("checkpoint failures under strict policy: %+v", stats)
	}

	// The injected faults actually fired.
	counters := chaos.Counters()
	if counters.DialsRefused == 0 {
		t.Fatalf("naming partition never bit: %+v", counters)
	}
	if counters.Delays == 0 {
		t.Fatalf("checkpoint delay never bit: %+v", counters)
	}

	// Every worker's newest checkpoint is the final epoch — one per
	// completed round — and stays readable with the crashed replica still
	// down (quorum of 2/3), matching what this run acked.
	world.guard.mu.Lock()
	keys := make([]string, 0, len(world.guard.acked))
	for k := range world.guard.acked {
		keys = append(keys, k)
	}
	world.guard.mu.Unlock()
	if len(keys) != soakConfig().Workers {
		t.Fatalf("checkpoint keys = %v, want one per worker", keys)
	}
	for _, key := range keys {
		cp, err := world.adminStore.Get(ctx, key)
		if err != nil {
			t.Fatalf("final read of %q with a replica down: %v", key, err)
		}
		if want := world.guard.ackedEpoch(key); cp.Epoch != want {
			t.Fatalf("store serves %q at epoch %d, acked max %d", key, cp.Epoch, want)
		}
		if cp.Epoch != uint64(res.Rounds) {
			t.Fatalf("%q final epoch %d, want one checkpoint per round (%d)", key, cp.Epoch, res.Rounds)
		}
	}
	world.adminStore.WaitRepairs()
}
