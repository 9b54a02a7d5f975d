// Control-plane chaos: three replicated nameserver processes, a winnerd
// system manager, and a Rosenbrock run driven through a replicated
// naming client (naming.NewHAClient) — then the primary nameserver AND
// winnerd are killed mid-run, a worker dies, and a spare offer's lease
// expires without renewal. The run must finish with a bitwise-identical
// optimisation result to the calm run of the same seed, zero
// client-visible resolve errors, and the failover / degradation /
// eviction counters visible on /metrics: the control plane heals itself
// without the computation noticing.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// cpWorld is one full control-plane deployment: 3 nameserver replicas,
// winnerd, and in-process workers announced with renewed leases.
type cpWorld struct {
	t *testing.T

	nsCmds  [3]*exec.Cmd
	nsRefs  [3]orb.ObjectRef
	nsObs   [3]string
	winnerd *exec.Cmd

	// admin is the control-plane client workers announce through; its
	// renewers must survive nameserver failover, so it is replicated too.
	admin   *orb.ORB
	adminHA *naming.Client

	// client is the manager's plane.
	client   *orb.ORB
	ha       *naming.Client
	resolver *exclusiveResolver
	name     naming.Name

	slots   map[orb.ObjectRef]*cpSlot
	counter int

	// spareName/spareRef form the never-renewed lease the chaos schedule
	// binds right after the primary dies: a surviving replica's sweeper
	// must evict it on its own.
	spareName naming.Name
	spareRef  orb.ObjectRef
}

// cpSlot is one live worker: its ORB plus the lease announcement keeping
// its offer registered.
type cpSlot struct {
	orb *orb.ORB
	ref orb.ObjectRef
	ann *rosen.Announcement
}

const (
	cpWorkerTTL = 2 * time.Second
	cpSpareTTL  = 800 * time.Millisecond
)

func newCPWorld(t *testing.T) *cpWorld {
	t.Helper()
	w := &cpWorld{
		t:         t,
		name:      naming.NewName(rosen.ServiceName),
		slots:     make(map[orb.ObjectRef]*cpSlot),
		spareName: naming.NewName("SpareWorker"),
		spareRef:  orb.ObjectRef{TypeID: rosen.WorkerTypeID, Addr: "127.0.0.1:1", Key: "spare"},
	}

	winnerCmd, winnerSIOR := startDaemonCmd(t, "winnerd", "-role", "system", "-addr", "127.0.0.1:0")
	w.winnerd = winnerCmd

	// Three replicas in a full mesh. Peer refs go through @ref-file specs
	// so start order doesn't matter. The sweep period is much shorter than
	// the sync period, so each replica evicts expired leases locally
	// before a peer's post-eviction snapshot can arrive.
	dir := t.TempDir()
	refFile := func(i int) string { return fmt.Sprintf("%s/ns%d.ref", dir, i) }
	for i := 0; i < 3; i++ {
		var peers []string
		for j := 0; j < 3; j++ {
			if j != i {
				peers = append(peers, "@"+refFile(j))
			}
		}
		cmd, sior, obsAddr := startObsDaemonCmd(t, "nameserver",
			"-addr", "127.0.0.1:0",
			"-ref-file", refFile(i),
			"-peers", strings.Join(peers, ","),
			"-sync-period", "250ms",
			"-sweep-period", "25ms",
			"-winner", winnerSIOR)
		ref, err := orb.RefFromString(sior)
		if err != nil {
			t.Fatal(err)
		}
		w.nsCmds[i], w.nsRefs[i], w.nsObs[i] = cmd, ref, obsAddr
	}

	w.admin = orb.New(orb.Options{Name: "cp-admin"})
	t.Cleanup(w.admin.Shutdown)
	adminHA, err := naming.NewHAClient(w.admin, w.nsRefs[:], naming.HAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.adminHA = adminHA

	w.client = orb.New(orb.Options{Name: "cp-manager", CallTimeout: 20 * time.Second})
	t.Cleanup(w.client.Shutdown)
	ha, err := naming.NewHAClient(w.client, w.nsRefs[:], naming.HAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.ha = ha
	w.resolver = newExclusiveResolver(ha)

	for i := 0; i < 3; i++ {
		w.spawnWorker()
	}
	w.awaitConvergence()
	return w
}

// awaitConvergence blocks until every replica serves all worker offers —
// the steady state a real deployment reaches before anything fails. The
// workload itself finishes faster than one replication period, so without
// this the backups would still be empty when the primary dies.
func (w *cpWorld) awaitConvergence() {
	w.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for i := range w.nsRefs {
		direct := naming.NewClient(w.admin, w.nsRefs[i])
		for {
			offers, err := direct.ListOffers(context.Background(), w.name)
			if err == nil && len(offers) == len(w.slots) {
				break
			}
			if time.Now().After(deadline) {
				w.t.Fatalf("replica %d never converged: offers=%v err=%v", i, offers, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// spawnWorker starts a worker on its own ORB and announces it with a
// renewed lease through the admin naming client.
func (w *cpWorld) spawnWorker() *cpSlot {
	w.t.Helper()
	w.counter++
	host := fmt.Sprintf("cp-host-%d", w.counter)
	o := orb.New(orb.Options{Name: host})
	w.t.Cleanup(o.Shutdown)
	ad, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.t.Fatal(err)
	}
	ref := ad.Activate("worker", ft.Wrap(rosen.NewWorker(nil)))
	ann, err := rosen.AnnounceWorker(context.Background(), w.adminHA, ref, host, cpWorkerTTL)
	if err != nil {
		w.t.Fatal(err)
	}
	slot := &cpSlot{orb: o, ref: ref, ann: ann}
	w.slots[ref] = slot
	w.t.Cleanup(func() {
		if r := ann.Renewer(); r != nil {
			r.Stop()
		}
	})
	return slot
}

// killWorker crashes the worker serving ref: a replacement is announced
// first, the victim's renewer stops (so the dead offer is not re-bound
// behind recovery's back), then its ORB shuts down.
func (w *cpWorld) killWorker(ref orb.ObjectRef) {
	w.t.Helper()
	slot := w.slots[ref]
	if slot == nil {
		w.t.Fatalf("no live worker serves %v", ref)
	}
	delete(w.slots, ref)
	w.spawnWorker()
	if r := slot.ann.Renewer(); r != nil {
		r.Stop()
	}
	slot.orb.Shutdown()
}

// run executes the workload; faulty enables the kill schedule.
func (w *cpWorld) run(ctx context.Context, faulty bool) (*rosen.Result, ft.Stats, error) {
	cfg := soakConfig()
	var mgr *rosen.Manager
	if faulty {
		killRounds := map[int]bool{2: true, 3: true}
		cfg.AfterRound = func(round int) {
			if !killRounds[round] {
				return
			}
			delete(killRounds, round)
			if round == 2 {
				// Decapitate the control plane: the primary nameserver and
				// the Winner system manager die together. Resolves must
				// fail over to replica 2 and selection must degrade to
				// round-robin — with no client-visible error either way.
				_ = w.nsCmds[0].Process.Kill()
				_ = w.winnerd.Process.Kill()
				// And bind one never-renewed lease through the degraded
				// plane: a surviving replica's sweeper must evict it.
				if err := w.adminHA.BindOfferLease(context.Background(),
					w.spareName, w.spareRef, "spare-host", cpSpareTTL); err != nil {
					w.t.Errorf("bind spare lease: %v", err)
				}
				return
			}
			// Round 3: crash a claimed worker so recovery has to resolve a
			// replacement through the degraded control plane.
			victim := mgr.WorkerRefs()[0]
			if _, alive := w.slots[victim]; !alive {
				for ref := range w.slots {
					w.resolver.mu.Lock()
					used := w.resolver.inUse[ref]
					w.resolver.mu.Unlock()
					if used {
						victim = ref
						break
					}
				}
			}
			w.killWorker(victim)
		}
	}

	mgr = rosen.NewManager(w.client, w.resolver, cfg).WithFT(rosen.FTOptions{
		Store: ft.NewMemStore(),
		Policy: ft.Policy{
			CheckpointEvery:  1,
			StrictCheckpoint: true,
			MaxRecoveries:    10,
			Backoff: orb.Backoff{
				Base: 20 * time.Millisecond, Max: 150 * time.Millisecond,
				Jitter: 1, Rand: rand.New(rand.NewSource(chaosSeed)),
			},
		},
		Unbinder: w.resolver,
	})
	res, err := mgr.Run(ctx)
	return res, mgr.ProxyStats(), err
}

// metricValue extracts an unlabelled metric's value from Prometheus text.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// pollMetric scrapes addr until the metric is present and pred accepts
// its value.
func pollMetric(t *testing.T, addr, name string, pred func(float64) bool) float64 {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if v, ok := metricValue(httpGet(t, addr, "/metrics"), name); ok && pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s on %s never reached the expected value:\n%s",
				name, addr, httpGet(t, addr, "/metrics"))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestControlPlaneChaos(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Calm reference run: identical topology (replicas, leases,
	// replicated naming clients), no kills.
	calm := newCPWorld(t)
	baseline, calmStats, err := calm.run(ctx, false)
	if err != nil {
		t.Fatalf("calm run: %v", err)
	}
	if calmStats.Recoveries != 0 {
		t.Fatalf("calm run recovered: %+v", calmStats)
	}
	if s := calm.ha.Stats(); s.ResolveErrors != 0 {
		t.Fatalf("calm run resolve errors: %+v", s)
	}

	// Chaos run.
	w := newCPWorld(t)

	// The manager's failover counters are scrapable over HTTP, like any
	// daemon's.
	clientReg := obs.NewRegistry()
	w.ha.ExportMetrics(clientReg)
	ln, err := obs.Serve("127.0.0.1:0", obs.Handler(clientReg, obs.NewRing(16)))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clientObs := ln.Addr().String()

	res, stats, err := w.run(ctx, true)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	// The optimisation result is bitwise identical to the calm run: the
	// control-plane deaths changed routing and timing, never the numbers.
	if res.F != baseline.F {
		t.Fatalf("chaos F = %v, calm F = %v", res.F, baseline.F)
	}
	if res.Rounds != baseline.Rounds || res.WorkerCalls != baseline.WorkerCalls {
		t.Fatalf("chaos rounds/calls = %d/%d, calm = %d/%d",
			res.Rounds, res.WorkerCalls, baseline.Rounds, baseline.WorkerCalls)
	}
	for i := range baseline.Boundary {
		if res.Boundary[i] != baseline.Boundary[i] {
			t.Fatalf("boundary[%d] = %v, calm %v", i, res.Boundary[i], baseline.Boundary[i])
		}
	}

	// Zero client-visible resolve errors, at least one failover, and at
	// least one recovery (the worker kill engaged).
	haStats := w.ha.Stats()
	if haStats.ResolveErrors != 0 {
		t.Fatalf("resolve errors during chaos: %+v", haStats)
	}
	if haStats.Failovers == 0 {
		t.Fatalf("no failovers recorded — the nameserver kill never bit: %+v", haStats)
	}
	if stats.Recoveries < 1 {
		t.Fatalf("no recoveries — the worker kill never bit: %+v", stats)
	}
	if res.Rounds < 4 {
		t.Fatalf("only %d rounds — kill schedule never engaged", res.Rounds)
	}

	// The surviving workers' renewers keep their leases alive against the
	// degraded control plane: the primary is dead, so every renewal from
	// here on proves failover end to end. (The workload itself finishes
	// faster than one renewal period, so poll rather than snapshot.)
	renewDeadline := time.Now().Add(15 * time.Second)
	for {
		renewed := false
		for _, slot := range w.slots {
			if r := slot.ann.Renewer(); r != nil && r.Renewals() > 0 {
				renewed = true
			}
		}
		if renewed {
			break
		}
		if time.Now().After(renewDeadline) {
			t.Fatal("no lease renewals recorded on any live worker")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /metrics across the planes: the client shows failovers, and the
	// surviving replica that serves resolves shows winner fallbacks (its
	// selector degraded to round-robin with winnerd dead).
	pollMetric(t, clientObs, "naming_failovers_total", func(v float64) bool { return v >= 1 })
	pollMetric(t, w.nsObs[1], "winner_fallback_total", func(v float64) bool { return v >= 1 })

	// The spare lease is evicted by a survivor's own sweeper. Replication
	// may spread the post-eviction snapshot before the other survivor
	// sweeps, so the eviction shows up on at least one of them — the first
	// remover always counts it locally.
	evictionDeadline := time.Now().Add(15 * time.Second)
	for {
		total := 0.0
		for _, addr := range []string{w.nsObs[1], w.nsObs[2]} {
			if v, ok := metricValue(httpGet(t, addr, "/metrics"), "naming_offers_evicted_total"); ok {
				total += v
			}
		}
		if total >= 1 {
			break
		}
		if time.Now().After(evictionDeadline) {
			t.Fatal("no surviving replica ever evicted the spare lease")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The spare offer goes from the survivors: at once on the one that
	// evicted it, on the other when it sweeps or the snapshot reaches it —
	// and the HA client may be asking either.
	for {
		offers, err := w.adminHA.ListOffers(ctx, w.spareName)
		if err != nil || len(offers) == 0 {
			break
		}
		if time.Now().After(evictionDeadline) {
			t.Fatalf("spare offer still bound after lease expiry: %+v", offers)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
