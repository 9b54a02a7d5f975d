package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/rosen"
)

// RunTable1Ablation is the Table 1 cell with a configurable checkpoint
// frequency: every=1 is the paper's checkpoint-after-each-call policy;
// larger values amortize the overhead over several calls at the price of
// a longer recovery replay window. The returned rows carry the checkpoint
// byte volume and how many checkpoints shipped as deltas.
func RunTable1Ablation(cfg Table1Config, checkpointEvery int) ([]Table1Row, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	var rows []Table1Row
	for _, iters := range cfg.Iterations {
		w, err := newTable1World(cfg.Workers, cfg.Observer)
		if err != nil {
			return nil, err
		}
		plainRes, err := rosen.NewManager(w.manager, w.naming, rosen.Config{
			N: cfg.N, Workers: cfg.Workers, WorkerIterations: iters,
			ManagerIterations: cfg.ManagerIterations, Seed: cfg.Seed,
		}).Run(context.Background())
		w.close()
		if err != nil {
			return nil, err
		}

		w2, err := newTable1World(cfg.Workers, cfg.Observer)
		if err != nil {
			return nil, err
		}
		mgr := rosen.NewManager(w2.manager, w2.naming, rosen.Config{
			N: cfg.N, Workers: cfg.Workers, WorkerIterations: iters,
			ManagerIterations: cfg.ManagerIterations, Seed: cfg.Seed,
		}).WithFT(rosen.FTOptions{
			Store:  w2.store,
			Policy: ft.Policy{CheckpointEvery: checkpointEvery},
		})
		proxyRes, err := mgr.Run(context.Background())
		stats := mgr.ProxyStats()
		w2.close()
		if err != nil {
			return nil, err
		}

		rows = append(rows, Table1Row{
			Iterations:       iters,
			Plain:            plainRes.Runtime,
			Proxy:            proxyRes.Runtime,
			Checkpoints:      stats.Checkpoints,
			CheckpointBytes:  stats.CheckpointBytes,
			DeltaCheckpoints: stats.DeltaCheckpoints,
		})
	}
	return rows, nil
}

// RunSelectionAblation measures the virtual runtime of a fixed partially
// loaded scenario (8 hosts, 3 of 6 worker hosts loaded, 30-dim / 3
// workers) under different host-selection policies behind the same naming
// service interface.
func RunSelectionAblation(policy string) (float64, error) {
	useWinner := policy == "winner"
	env, err := core.Start(core.EnvironmentOptions{Hosts: 8, UseWinner: useWinner})
	if err != nil {
		return 0, err
	}
	defer env.Close()

	if !useWinner {
		// Swap in the requested baseline selector.
		var sel naming.Selector
		switch policy {
		case "roundrobin":
			sel = naming.RoundRobinSelector()
		case "random":
			sel = naming.RandomSelector(nil)
		case "first":
			sel = naming.FirstSelector()
		default:
			return 0, fmt.Errorf("unknown policy %q", policy)
		}
		reg := naming.NewRegistry()
		ref := env.ServiceNode.Adapter.Activate(naming.DefaultKey+"-ablate", naming.NewServant(reg, sel))
		env.Naming = naming.NewClient(env.ServiceNode.ORB, ref)
	}

	name := naming.NewName(rosen.ServiceName)
	hosts := env.Cluster.Hosts()
	for _, h := range hosts[1:7] {
		node, err := env.NewNode(h.Name())
		if err != nil {
			return 0, err
		}
		ref := node.Adapter.Activate("worker", ft.Wrap(rosen.NewWorker(h)))
		if err := env.Naming.BindOffer(context.Background(), name, ref, h.Name()); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= 3; i++ {
		hosts[i].SetBackground(1)
	}
	env.SampleAll()

	mgrNode, err := env.NewNode(hosts[0].Name())
	if err != nil {
		return 0, err
	}
	res, err := rosen.NewManager(mgrNode.ORB, env.NamingClientFor(mgrNode), rosen.Config{
		N: 30, Workers: 3,
		WorkerIterations:  80,
		ManagerIterations: 5,
		Seed:              1,
		EvalCost:          0.02,
	}).OnHost(mgrNode.Host).Run(context.Background())
	if err != nil {
		return 0, err
	}
	return res.Runtime, nil
}

// RunMixedClusterAblation runs the 30/3 workload on a heterogeneous NOW
// — the "networks of mixed uniprocessor/multiprocessor workstations"
// Winner was built for. The cluster registers three slow uniprocessors
// first, then two modern SMP machines, and every host carries one
// background process: the plain naming service walks the registration
// order onto the slow machines while Winner finds the multiprocessors.
// Returns plain and Winner virtual runtimes.
func RunMixedClusterAblation() (plain, winner float64, err error) {
	run := func(useWinner bool) (float64, error) {
		c := cluster.New()
		c.Add(cluster.NewHost("svc", 1)) // service/manager host
		c.Add(cluster.NewHost("old0", 0.5))
		c.Add(cluster.NewHost("old1", 0.5))
		c.Add(cluster.NewHost("old2", 0.5))
		c.Add(cluster.NewHostMP("smp0", 1, 4))
		c.Add(cluster.NewHostMP("smp1", 1, 4))
		env, err := core.StartOn(c, core.EnvironmentOptions{UseWinner: useWinner})
		if err != nil {
			return 0, err
		}
		defer env.Close()

		name := naming.NewName(rosen.ServiceName)
		for _, h := range c.Hosts()[1:] {
			node, err := env.NewNode(h.Name())
			if err != nil {
				return 0, err
			}
			ref := node.Adapter.Activate("worker", ft.Wrap(rosen.NewWorker(h)))
			if err := env.Naming.BindOffer(context.Background(), name, ref, h.Name()); err != nil {
				return 0, err
			}
			h.SetBackground(1)
		}
		env.SampleAll()

		mgrNode, err := env.NewNode("svc")
		if err != nil {
			return 0, err
		}
		res, err := rosen.NewManager(mgrNode.ORB, env.NamingClientFor(mgrNode), rosen.Config{
			N: 30, Workers: 3,
			WorkerIterations:  80,
			ManagerIterations: 5,
			Seed:              1,
			EvalCost:          0.02,
		}).OnHost(mgrNode.Host).Run(context.Background())
		if err != nil {
			return 0, err
		}
		return res.Runtime, nil
	}
	if plain, err = run(false); err != nil {
		return 0, 0, err
	}
	if winner, err = run(true); err != nil {
		return 0, 0, err
	}
	return plain, winner, nil
}

// RunReplicationAblation contrasts the paper's checkpoint/restart design
// against active replication (the Piranha/IGOR style it argues against):
// the same 7-worker problem on a 10-host NOW, fault tolerance provided
// either by checkpointing proxies (replicas <= 1) or by replica groups of
// the given size. Active replicas compete for hosts, so the parallel
// application loses throughput exactly as the paper predicts ("not
// desirable to use a large amount of the computational resources
// exclusively for availability"). Returns the virtual runtime. Colocated
// replicas time-share their host, which makes the overlap — and therefore
// the exact runtime — mildly schedule-dependent; the slowdown ordering is
// stable.
func RunReplicationAblation(replicas int) (float64, error) {
	env, err := core.Start(core.EnvironmentOptions{Hosts: 10, UseWinner: true})
	if err != nil {
		return 0, err
	}
	defer env.Close()

	name := naming.NewName(rosen.ServiceName)
	hosts := env.Cluster.Hosts()
	for _, h := range hosts[1:] {
		node, err := env.NewNode(h.Name())
		if err != nil {
			return 0, err
		}
		ref := node.Adapter.Activate("worker", ft.Wrap(rosen.NewWorker(h)))
		if err := env.Naming.BindOffer(context.Background(), name, ref, h.Name()); err != nil {
			return 0, err
		}
	}
	env.SampleAll()

	mgrNode, err := env.NewNode(hosts[0].Name())
	if err != nil {
		return 0, err
	}
	cfg := rosen.Config{
		N: 100, Workers: 7,
		WorkerIterations:  80,
		ManagerIterations: 5,
		Seed:              1,
		EvalCost:          0.02,
	}
	m := rosen.NewManager(mgrNode.ORB, env.NamingClientFor(mgrNode), cfg).OnHost(mgrNode.Host)
	if replicas > 1 {
		cfg.Replication = replicas
		m = rosen.NewManager(mgrNode.ORB, env.NamingClientFor(mgrNode), cfg).OnHost(mgrNode.Host)
	} else {
		m.WithFT(rosen.FTOptions{
			Store:  ft.NewMemStore(),
			Policy: ft.Policy{CheckpointEvery: 1},
		})
	}
	res, err := m.Run(context.Background())
	if err != nil {
		return 0, err
	}
	return res.Runtime, nil
}

// RunLatencyAblation measures the virtual runtime of a fixed unloaded
// scenario across one-way network latencies — the paper's future-work
// item (c), CORBA-based metacomputing over wide-area networks: how far
// can link latency grow before it dominates the decomposed optimization's
// runtime?
func RunLatencyAblation(latencySeconds float64) (float64, error) {
	env, err := core.Start(core.EnvironmentOptions{Hosts: 4, UseWinner: true, Latency: latencySeconds})
	if err != nil {
		return 0, err
	}
	defer env.Close()

	name := naming.NewName(rosen.ServiceName)
	hosts := env.Cluster.Hosts()
	for _, h := range hosts[1:] {
		node, err := env.NewNode(h.Name())
		if err != nil {
			return 0, err
		}
		ref := node.Adapter.Activate("worker", ft.Wrap(rosen.NewWorker(h)))
		if err := env.Naming.BindOffer(context.Background(), name, ref, h.Name()); err != nil {
			return 0, err
		}
	}
	env.SampleAll()

	mgrNode, err := env.NewNode(hosts[0].Name())
	if err != nil {
		return 0, err
	}
	res, err := rosen.NewManager(mgrNode.ORB, env.NamingClientFor(mgrNode), rosen.Config{
		N: 30, Workers: 3,
		WorkerIterations:  80,
		ManagerIterations: 5,
		Seed:              1,
		EvalCost:          0.02,
	}).OnHost(mgrNode.Host).Run(context.Background())
	if err != nil {
		return 0, err
	}
	return res.Runtime, nil
}

// RunDecompositionAblation measures the virtual runtime of an n-dim
// problem split across the given worker count on an unloaded NOW with one
// worker host per worker.
func RunDecompositionAblation(n, workers int) (float64, error) {
	env, err := core.Start(core.EnvironmentOptions{Hosts: workers + 1, UseWinner: true})
	if err != nil {
		return 0, err
	}
	defer env.Close()

	name := naming.NewName(rosen.ServiceName)
	hosts := env.Cluster.Hosts()
	for _, h := range hosts[1:] {
		node, err := env.NewNode(h.Name())
		if err != nil {
			return 0, err
		}
		ref := node.Adapter.Activate("worker", ft.Wrap(rosen.NewWorker(h)))
		if err := env.Naming.BindOffer(context.Background(), name, ref, h.Name()); err != nil {
			return 0, err
		}
	}
	env.SampleAll()

	mgrNode, err := env.NewNode(hosts[0].Name())
	if err != nil {
		return 0, err
	}
	res, err := rosen.NewManager(mgrNode.ORB, env.NamingClientFor(mgrNode), rosen.Config{
		N: n, Workers: workers,
		WorkerIterations:  80,
		ManagerIterations: 5,
		Seed:              1,
		EvalCost:          0.02,
	}).OnHost(mgrNode.Host).Run(context.Background())
	if err != nil {
		return 0, err
	}
	return res.Runtime, nil
}
