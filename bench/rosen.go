package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// The paper's application, at the paper's size. One solve is a fixed amount
// of work; a run repeats solves, plain and fault-tolerant in turn, each on a
// fresh deployment (workers keep warm-start state), until its time is up.
const (
	rosenN           = 100
	rosenWorkers     = 7
	rosenWorkerIters = 100
	rosenManagerIter = 250 // about 520 manager rounds, 3600 worker calls
	rosenWarmIter    = 25
	rosenBlock       = 20 // manager rounds per measured block, about 15 ms
)

// rosenOutcome is what two solves must agree on bit for bit.
type rosenOutcome struct {
	f      uint64
	rounds int
	calls  int64
}

type rosenRun struct {
	*base
	// managerIters sizes the measured solves; the smoke test shrinks it.
	managerIters int
	first        *rosenOutcome // the first measured solve; every other must match it
	// resolves is how many resolves the naming servant served during the
	// last solve, placement included; the trace pass reports it.
	resolves uint64
}

// deployment is the Table 1 world: a services ORB (naming with round-robin
// selection, checkpoint store), one ORB per worker, one for the manager.
type deployment struct {
	orbs    []*orb.ORB // this deployment's share of the world's ORBs
	manager *orb.ORB
	naming  *naming.Servant
	ns      *naming.Client
	store   *ft.StoreClient
}

func (r *rosenRun) deploy() (d *deployment, err error) {
	first := len(r.orbs)
	d = &deployment{}
	defer func() {
		d.orbs = r.orbs[first:]
		if err != nil {
			d.close()
		}
	}()
	_, ad, err := r.serve("services", true)
	if err != nil {
		return nil, err
	}
	d.naming = naming.NewServant(naming.NewRegistry(), naming.RoundRobinSelector())
	nsRef := ad.Activate(naming.DefaultKey, d.naming)
	storeRef := ad.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))
	d.manager = r.newORB("manager", true)
	d.ns = naming.NewClient(d.manager, nsRef)
	d.store = ft.NewStoreClient(d.manager, storeRef)
	name := naming.NewName(rosen.ServiceName)
	for j := 0; j < rosenWorkers; j++ {
		_, wad, err := r.serve(fmt.Sprintf("worker%d", j), true)
		if err != nil {
			return nil, err
		}
		ref := wad.Activate("worker", ft.Wrap(rosen.NewWorker(nil)))
		if err := d.ns.BindOffer(context.Background(), name, ref, fmt.Sprintf("host%d", j)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	for i := len(d.orbs) - 1; i >= 0; i-- {
		d.orbs[i].Shutdown()
	}
}

// solve runs one optimisation on a fresh deployment and returns the
// latency of every manager round (a fan-out of seven solve calls and the
// wait for all replies), timed from outside through Config.AfterRound.
// With ph set, every rosenBlock rounds become one block of that phase, the
// canary read between them outside any round; the rounds left over at the
// end of the solve are in no block.
func (r *rosenRun) solve(managerIters int, withFT bool, tr *recorder, ph *phase) (rounds []int64, wall time.Duration, calls int64, err error) {
	ctx := context.Background()
	d, err := r.deploy()
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.close()
	name := "rosen.Manager.Run"
	if withFT {
		name += "/ft"
	}
	var last, blockStart time.Time
	var run, open int32
	m := rosen.NewManager(d.manager, d.ns, rosen.Config{
		N: rosenN, Workers: rosenWorkers,
		WorkerIterations: rosenWorkerIters, ManagerIterations: managerIters,
		Seed: r.seed,
		AfterRound: func(int) {
			now := time.Now()
			rounds = append(rounds, int64(now.Sub(last)))
			tr.end(open)
			if ph != nil && len(rounds)%rosenBlock == 0 {
				lat := append([]int64(nil), rounds[len(rounds)-rosenBlock:]...)
				ph.add(lat, now.Sub(blockStart), r.around())
				now = time.Now()
				blockStart = now
			}
			last = now
			open = tr.start("rosen.round", run, int64(len(rounds)))
		},
	})
	if withFT {
		m.WithFT(rosen.FTOptions{Store: d.store, Policy: ft.Policy{CheckpointEvery: 1}, Unbinder: d.ns})
	}
	// Placement (seven resolves and dials) is set-up, not a round.
	if err := m.Place(ctx); err != nil {
		return nil, 0, 0, err
	}
	if ph != nil {
		r.around()
	}
	run = tr.start(name, 0, 0)
	open = tr.start("rosen.round", run, 0)
	start := time.Now()
	last, blockStart = start, start
	res, err := m.Run(ctx)
	wall = time.Since(start)
	tr.end(open)
	tr.end(run)
	if err != nil {
		return nil, 0, 0, err
	}
	r.resolves = d.naming.Resolves()
	out := rosenOutcome{f: math.Float64bits(res.F), rounds: res.Rounds, calls: res.WorkerCalls}
	if managerIters == r.managerIters {
		if r.first == nil {
			r.first = &out
		} else if out != *r.first {
			return nil, 0, 0, fmt.Errorf("solve (ft=%v) gave F=%x rounds=%d calls=%d, the first solve F=%x rounds=%d calls=%d",
				withFT, out.f, out.rounds, out.calls, r.first.f, r.first.rounds, r.first.calls)
		}
	}
	if withFT {
		st := m.ProxyStats()
		if st.Recoveries != 0 || st.CheckpointFailures != 0 || st.Checkpoints != uint64(res.WorkerCalls) {
			return nil, 0, 0, fmt.Errorf("ft solve: %d recoveries, %d checkpoint failures, %d checkpoints for %d calls",
				st.Recoveries, st.CheckpointFailures, st.Checkpoints, res.WorkerCalls)
		}
	}
	return rounds, wall, res.WorkerCalls, nil
}

// setup builds one deployment and runs a short fixed warm-up solve on it.
func (r *rosenRun) setup() error {
	_, _, _, err := r.solve(rosenWarmIter, true, nil, nil)
	return err
}

func (r *rosenRun) run(d time.Duration, tr *recorder) {
	for r.begin(); r.measured() < d; {
		for _, withFT := range []bool{false, true} {
			ph := &r.pri
			if withFT {
				ph = &r.alt
			}
			if _, _, _, err := r.solve(r.managerIters, withFT, tr, ph); err != nil {
				r.fails.note(err)
				ph.add([]int64{failedOp}, time.Second, 0)
			}
		}
	}
}

// check: every solve was compared with the first as it finished, so plain
// and fault-tolerant solves agree bitwise on F and exactly on Rounds and
// WorkerCalls.
func (r *rosenRun) check() error {
	if r.first == nil {
		return fmt.Errorf("no solve completed")
	}
	return nil
}
