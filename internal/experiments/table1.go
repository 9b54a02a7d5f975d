package experiments

import (
	"context"
	"fmt"

	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// Table1Config parameterizes the proxy-overhead measurement. Unlike
// Figure 3 this experiment runs in real time: the quantity measured is
// genuine middleware overhead (extra TCP round trips and marshalling per
// call), which the local stack possesses, so no simulation is needed.
type Table1Config struct {
	// N and Workers define the problem (paper: 100/7).
	N, Workers int
	// Iterations is the sweep of worker Complex Box budgets (the paper's
	// varying "number of worker iterations", 10k–50k).
	Iterations []int
	// ManagerIterations bounds the manager's loop (kept small so each
	// cell is one comparable batch of worker rounds).
	ManagerIterations int
	// Seed drives all randomness.
	Seed int64
	// Repeats runs each cell several times and keeps the minimum runtime
	// (the standard way to suppress wall-clock noise in microbenchmarks).
	Repeats int
	// Observer, when set, is attached to every ORB of the measured
	// deployment: RPC spans and latency histograms from all processes
	// land in its ring/registry (rosenbench -trace).
	Observer *obs.Observer `json:"-"`
}

// DefaultTable1Config reproduces the paper's sweep, extended downward so
// the high-overhead regime (the paper's >200% rows were measured with a
// deliberately unoptimized store) is visible on a fast modern stack.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		N: 100, Workers: 7,
		Iterations:        []int{10, 100, 1000, 10000, 20000, 30000, 40000, 50000},
		ManagerIterations: 3,
		Seed:              1,
		Repeats:           3,
	}
}

// Table1Row is one line of the table.
type Table1Row struct {
	// Iterations is the worker iteration budget.
	Iterations int
	// Plain and Proxy are wall-clock runtimes in seconds without and
	// with fault-tolerant proxies.
	Plain, Proxy float64
	// Checkpoints counts checkpoints stored during the proxy run.
	Checkpoints uint64
	// CheckpointBytes is the payload volume actually written to the
	// checkpoint store during the proxy run (after delta encoding and
	// compression, where enabled).
	CheckpointBytes uint64
	// DeltaCheckpoints counts checkpoints that shipped as deltas.
	DeltaCheckpoints uint64
}

// OverheadPct is the paper's overhead column: (proxy-plain)/plain·100.
func (r Table1Row) OverheadPct() float64 {
	if r.Plain == 0 {
		return 0
	}
	return 100 * (r.Proxy - r.Plain) / r.Plain
}

// table1World is the real-time deployment: a services process (naming +
// checkpoint store), one process per worker, and a manager process, all
// over loopback TCP.
type table1World struct {
	services *orb.ORB
	workers  []*orb.ORB
	manager  *orb.ORB
	naming   *naming.Client
	store    *ft.StoreClient
}

func newTable1World(workers int, ob *obs.Observer) (*table1World, error) {
	var cis []orb.CallInterceptor
	if ob != nil {
		cis = []orb.CallInterceptor{ob}
	}
	// With an observer attached, every ORB of the deployment also feeds
	// its black-box flight recorder, so a post-run report (or an anomaly
	// dump) can replay the deployment-wide request tail.
	attach := func(o *orb.ORB) *orb.ORB {
		if ob != nil {
			o.AttachFlightRecorder(ob.Flight)
		}
		return o
	}
	w := &table1World{}
	w.services = attach(orb.New(orb.Options{Name: "services", CallInterceptors: cis}))
	ad, err := w.services.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	reg := naming.NewRegistry()
	nsRef := ad.Activate(naming.DefaultKey, naming.NewServant(reg, naming.RoundRobinSelector()))
	storeRef := ad.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))

	w.manager = attach(orb.New(orb.Options{Name: "manager", CallInterceptors: cis}))
	w.naming = naming.NewClient(w.manager, nsRef)
	w.store = ft.NewStoreClient(w.manager, storeRef)

	name := naming.NewName(rosen.ServiceName)
	for j := 0; j < workers; j++ {
		wo := attach(orb.New(orb.Options{Name: fmt.Sprintf("worker%d", j), CallInterceptors: cis}))
		wad, err := wo.NewAdapter("127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		ref := wad.Activate("worker", ft.Wrap(rosen.NewWorker(nil)))
		if err := w.naming.BindOffer(context.Background(), name, ref, fmt.Sprintf("host%d", j)); err != nil {
			w.close()
			return nil, err
		}
		w.workers = append(w.workers, wo)
	}
	return w, nil
}

func (w *table1World) close() {
	for _, o := range w.workers {
		o.Shutdown()
	}
	if w.manager != nil {
		w.manager.Shutdown()
	}
	if w.services != nil {
		w.services.Shutdown()
	}
}

// RunTable1 executes the sweep: for each worker-iteration budget it runs
// the 100-dimensional, 7-worker optimization with plain stubs and with
// checkpoint-after-every-call proxies, reporting the minimum wall-clock
// runtime over Repeats runs and the overhead percentage. One unmeasured
// warm-up run absorbs one-time process costs (page-in, first GC, TCP
// stack warm-up) that would otherwise be charged to the first cell.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	warm := cfg
	warm.Iterations = nil
	if _, err := runTable1Cell(warm, 20, false); err != nil {
		return nil, fmt.Errorf("table1 warm-up: %w", err)
	}
	var rows []Table1Row
	for _, iters := range cfg.Iterations {
		row := Table1Row{Iterations: iters}
		for rep := 0; rep < cfg.Repeats; rep++ {
			plain, err := runTable1Cell(cfg, iters, false)
			if err != nil {
				return nil, fmt.Errorf("table1 iters=%d plain: %w", iters, err)
			}
			proxy, err := runTable1Cell(cfg, iters, true)
			if err != nil {
				return nil, fmt.Errorf("table1 iters=%d proxy: %w", iters, err)
			}
			if rep == 0 || plain.runtime < row.Plain {
				row.Plain = plain.runtime
			}
			if rep == 0 || proxy.runtime < row.Proxy {
				row.Proxy = proxy.runtime
			}
			// One checkpoint per successful worker call.
			row.Checkpoints = uint64(proxy.calls)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1Cell is what one run of one cell measured.
type table1Cell struct {
	runtime float64 // wall-clock seconds of the optimization
	calls   int64   // worker calls the manager made
	// sent is how many requests left the manager's ORB during the
	// optimization, placement excluded: what a worker call costs on the
	// wire, counted instead of timed.
	sent uint64
}

func runTable1Cell(cfg Table1Config, iters int, useProxy bool) (table1Cell, error) {
	w, err := newTable1World(cfg.Workers, cfg.Observer)
	if err != nil {
		return table1Cell{}, err
	}
	defer w.close()

	m := rosen.NewManager(w.manager, w.naming, rosen.Config{
		N:                 cfg.N,
		Workers:           cfg.Workers,
		WorkerIterations:  iters,
		ManagerIterations: cfg.ManagerIterations,
		Seed:              cfg.Seed,
	})
	if useProxy {
		m.WithFT(rosen.FTOptions{
			Store:    w.store,
			Policy:   ft.Policy{CheckpointEvery: 1},
			Unbinder: w.naming,
		})
	}
	ctx := context.Background()
	if err := m.Place(ctx); err != nil {
		return table1Cell{}, err
	}
	placed := w.manager.Stats().RequestsSent
	res, err := m.Run(ctx)
	if err != nil {
		return table1Cell{}, err
	}
	return table1Cell{
		runtime: res.Runtime,
		calls:   res.WorkerCalls,
		sent:    w.manager.Stats().RequestsSent - placed,
	}, nil
}
