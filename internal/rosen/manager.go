package rosen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/orb"
)

// requester abstracts "issue an asynchronous solve call": the plain DII
// request and the fault-tolerant request proxy both satisfy it, so the
// manager code is identical with and without fault tolerance — the
// paper's "use a proxy class instead of the stub class" one-line change.
type requester interface {
	Args() *cdr.Encoder
	Send()
	GetResponse(func(*cdr.Decoder) error) error
}

// workerHandle issues solve requests against one worker.
type workerHandle interface {
	newRequest(ctx context.Context) requester
}

type plainHandle struct {
	orb *orb.ORB
	ref orb.ObjectRef
}

func (h plainHandle) newRequest(ctx context.Context) requester {
	return h.orb.CreateRequest(ctx, h.ref, OpSolve)
}

type proxyHandle struct{ p *ft.Proxy }

func (h proxyHandle) newRequest(ctx context.Context) requester { return h.p.NewRequest(ctx, OpSolve) }

type replicaHandle struct{ g *ft.ReplicaGroup }

func (h replicaHandle) newRequest(ctx context.Context) requester {
	return h.g.NewRequest(ctx, OpSolve)
}

// Config parameterizes a distributed decomposed-Rosenbrock run.
type Config struct {
	// N is the global problem dimension (30 or 100 in the paper).
	N int
	// Workers is the number of worker subproblems (3 or 7).
	Workers int
	// WorkerIterations is each worker's Complex Box budget per solve —
	// the paper's worker stopping criterion (Table 1 sweeps it).
	WorkerIterations int
	// ManagerIterations is the manager's Complex Box budget (the number
	// of boundary proposals, each costing one parallel worker round).
	ManagerIterations int
	// Seed drives both manager and worker randomness.
	Seed int64
	// Lo and Hi are the uniform global box constraints (the classic
	// Rosenbrock box is [-2.048, 2.048]).
	Lo, Hi float64
	// EvalCost is the virtual CPU seconds charged per worker objective
	// evaluation per dimension (0 for real-time mode).
	EvalCost float64
	// Replication, when > 1, uses active replication instead of
	// checkpoint/restart: each worker becomes a replica group of that
	// size, every solve is multicast, and no checkpoints are taken — the
	// alternative fault-tolerance style (Piranha/IGOR) the paper argues
	// wastes computational resources. Mutually exclusive with WithFT.
	Replication int
	// AfterRound, when set, runs after each completed manager round with
	// the 1-based round number. Experiments use it for deterministic
	// mid-run fault injection.
	AfterRound func(round int)
}

func (c Config) withDefaults() Config {
	if c.WorkerIterations == 0 {
		c.WorkerIterations = 200
	}
	if c.ManagerIterations == 0 {
		c.ManagerIterations = 10
	}
	if c.Lo == 0 && c.Hi == 0 {
		c.Lo, c.Hi = -2.048, 2.048
	}
	return c
}

// Result reports a distributed run.
type Result struct {
	// F is the best combined objective value found.
	F float64
	// Boundary is the best boundary-variable vector.
	Boundary []float64
	// X is the assembled full solution vector.
	X []float64
	// Rounds is the number of manager iterations (parallel worker
	// rounds) executed.
	Rounds int
	// WorkerCalls counts solve invocations issued.
	WorkerCalls int64
	// Evaluations sums worker objective evaluations.
	Evaluations int64
	// Runtime is the elapsed time: virtual seconds when the manager runs
	// on a simulated host, wall-clock seconds otherwise.
	Runtime float64
	// SequentialSeconds is the total virtual CPU work performed by all
	// workers (what a single reference workstation would have needed).
	// Zero in real-time mode (EvalCost 0).
	SequentialSeconds float64
}

// Speedup is the parallel speedup: sequential work over elapsed runtime
// (0 when either quantity is unknown).
func (r *Result) Speedup() float64 {
	if r.Runtime <= 0 || r.SequentialSeconds <= 0 {
		return 0
	}
	return r.SequentialSeconds / r.Runtime
}

// FTOptions enable fault-tolerant worker proxies.
type FTOptions struct {
	// Store receives worker checkpoints.
	Store ft.Store
	// Policy tunes the proxies (CheckpointEvery=1 reproduces Table 1).
	Policy ft.Policy
	// Unbinder removes dead offers during recovery (optional).
	Unbinder ft.Unbinder
}

// Manager drives the bilevel optimization: its Complex Box proposes
// boundary vectors; each proposal is evaluated by dispatching subproblem
// solves to all workers in parallel (DII deferred requests) and summing
// their optima.
type Manager struct {
	orb      *orb.ORB
	resolver ft.Resolver
	cfg      Config
	// clockHost, when set, measures runtime on its virtual clock.
	clockHost *cluster.Host
	ftOpts    *FTOptions
	// elastic, when set, switches Run to the segmented re-decomposition
	// loop driven by the cluster membership view (see elastic.go).
	elastic *ElasticOptions

	handles []workerHandle
	refs    []orb.ObjectRef

	esMu sync.Mutex
	es   ElasticStats
}

// NewManager builds a manager that locates workers via resolver (the
// naming service) and calls them through o.
func NewManager(o *orb.ORB, resolver ft.Resolver, cfg Config) *Manager {
	return &Manager{orb: o, resolver: resolver, cfg: cfg.withDefaults()}
}

// OnHost makes the manager measure runtime on host's virtual clock.
func (m *Manager) OnHost(h *cluster.Host) *Manager {
	m.clockHost = h
	return m
}

// WithFT routes all worker calls through fault-tolerant proxies.
func (m *Manager) WithFT(opts FTOptions) *Manager {
	m.ftOpts = &opts
	return m
}

// WorkerRefs returns the references resolved during placement (valid
// after Run or Place).
func (m *Manager) WorkerRefs() []orb.ObjectRef { return m.refs }

// ProxyStats sums the fault-tolerance counters over all worker proxies.
// Zero unless the manager runs WithFT; valid after Place. Chaos tests use
// it to assert that recovery fired and that replayed work stays bounded.
func (m *Manager) ProxyStats() ft.Stats {
	var total ft.Stats
	for _, h := range m.handles {
		ph, ok := h.(proxyHandle)
		if !ok {
			continue
		}
		s := ph.p.Stats()
		total.Calls += s.Calls
		total.Checkpoints += s.Checkpoints
		total.CheckpointFailures += s.CheckpointFailures
		total.Recoveries += s.Recoveries
		total.Replays += s.Replays
		total.CheckpointBytes += s.CheckpointBytes
		total.DeltaCheckpoints += s.DeltaCheckpoints
	}
	return total
}

// Place resolves one worker reference per subproblem through the naming
// service. With the Winner-enhanced service each resolve lands on the
// currently best host; with the plain service placement ignores load —
// this is the entire difference between the paper's two Figure 3 curves.
func (m *Manager) Place(ctx context.Context) error {
	return m.place(ctx, m.cfg.Workers)
}

// place resolves workers many worker references; Place and the elastic
// segment loop (which re-places at each new width) both go through it.
func (m *Manager) place(ctx context.Context, workers int) error {
	if m.handles != nil {
		return nil
	}
	name := naming.NewName(ServiceName)
	for j := 0; j < workers; j++ {
		if m.cfg.Replication > 1 {
			// Active replication: resolve one reference per replica (the
			// naming service spreads them over hosts) and multicast.
			refs := make([]orb.ObjectRef, 0, m.cfg.Replication)
			for r := 0; r < m.cfg.Replication; r++ {
				ref, err := m.resolver.Resolve(ctx, name)
				if err != nil {
					return fmt.Errorf("rosen: place worker %d replica %d: %w", j, r, err)
				}
				refs = append(refs, ref)
			}
			g, err := ft.NewReplicaGroupFromRefs(m.orb, name, refs)
			if err != nil {
				return fmt.Errorf("rosen: place worker %d: %w", j, err)
			}
			m.handles = append(m.handles, replicaHandle{g})
			m.refs = append(m.refs, refs[0])
			continue
		}
		if m.ftOpts != nil {
			proxyName := naming.NewName(ServiceName, fmt.Sprintf("w%d", j))
			// Each worker needs its own checkpoint identity; the group
			// offers live under ServiceName, so resolve through it but
			// checkpoint under the per-worker name.
			p, err := ft.NewProxy(ctx, m.orb, name, m.resolver, keyedStore{m.ftOpts.Store, proxyName.String()},
				m.ftOpts.Policy, proxyOptions(m.ftOpts)...)
			if err != nil {
				return fmt.Errorf("rosen: place worker %d: %w", j, err)
			}
			m.handles = append(m.handles, proxyHandle{p})
			m.refs = append(m.refs, p.Ref())
			continue
		}
		ref, err := m.resolver.Resolve(ctx, name)
		if err != nil {
			return fmt.Errorf("rosen: place worker %d: %w", j, err)
		}
		m.handles = append(m.handles, plainHandle{orb: m.orb, ref: ref})
		m.refs = append(m.refs, ref)
	}
	// Warm the transport to every placed worker before the first round,
	// so round 1 does not pay the TCP dials serially.
	addrs := make([]string, 0, len(m.refs))
	for _, ref := range m.refs {
		addrs = append(addrs, ref.Addr)
	}
	m.orb.Prewarm(ctx, addrs...)
	return nil
}

func proxyOptions(o *FTOptions) []ft.ProxyOption {
	var opts []ft.ProxyOption
	if o.Unbinder != nil {
		opts = append(opts, ft.WithUnbinder(o.Unbinder))
	}
	return opts
}

// keyedStore namespaces one proxy's checkpoints inside a shared store, so
// several proxies resolving the same group name keep distinct state.
type keyedStore struct {
	inner ft.Store
	key   string
}

func (s keyedStore) Put(ctx context.Context, _ string, cp ft.Checkpoint) error {
	return s.inner.Put(ctx, s.key, cp)
}
func (s keyedStore) Get(ctx context.Context, _ string) (ft.Checkpoint, error) {
	return s.inner.Get(ctx, s.key)
}
func (s keyedStore) Delete(ctx context.Context, _ string) error { return s.inner.Delete(ctx, s.key) }
func (s keyedStore) Keys(ctx context.Context) ([]string, error) { return s.inner.Keys(ctx) }

// Run executes the full bilevel optimization and reports the result.
// Cancelling ctx stops the manager loop between evaluations and aborts
// the in-flight worker solves (the workers observe the propagated
// cancellation and stop iterating).
func (m *Manager) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m.elastic != nil {
		return m.runElastic(ctx)
	}
	if err := m.Place(ctx); err != nil {
		return nil, err
	}
	return m.runSegment(ctx, m.cfg.Workers, nil)
}

// runSegment executes one full bilevel optimization at the given worker
// count against the current placement. In fixed mode it is the whole run;
// in elastic mode each membership epoch runs one segment, and interrupted
// (when non-nil) is polled between manager evaluations — a true return
// aborts the segment with errInterrupted and its partial result is
// discarded, keeping segment results equal to fresh fixed-pool runs.
func (m *Manager) runSegment(ctx context.Context, workers int, interrupted func() bool) (*Result, error) {
	d, err := opt.NewDecomposition(m.cfg.N, workers)
	if err != nil {
		return nil, err
	}
	global := opt.UniformBounds(m.cfg.N, m.cfg.Lo, m.cfg.Hi)
	mb, err := d.ManagerBounds(global)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	workerDims := d.WorkerDims()
	startWall := time.Now()
	var startVirtual float64
	if m.clockHost != nil {
		startVirtual = m.clockHost.Clock().Now()
	}

	var solveErr error
	round := 0
	bestF := 0.0
	var bestBoundary []float64
	var bestBlocks [][]float64
	haveBest := false

	managerObj := func(boundary []float64) float64 {
		if solveErr != nil {
			return 0
		}
		round++
		// Each manager round — one parallel fan-out to all workers — is a
		// span, so rosenbench -trace shows rounds with their worker calls.
		rctx, rspan := obs.StartSpan(ctx, "rosen.round",
			obs.Int("round", int64(round)), obs.Int("workers", int64(workers)))
		reqs := make([]requester, workers)
		for j := 0; j < workers; j++ {
			sr := SolveRequest{
				N:             int32(m.cfg.N),
				Workers:       int32(workers),
				Index:         int32(j),
				Boundary:      boundary,
				MaxIterations: int32(m.cfg.WorkerIterations),
				Seed:          m.cfg.Seed + int64(j) + int64(round)*1000,
				Lo:            m.cfg.Lo,
				Hi:            m.cfg.Hi,
				EvalCost:      m.cfg.EvalCost,
			}
			req := m.handles[j].newRequest(rctx)
			sr.MarshalCDR(req.Args())
			req.Send()
			reqs[j] = req
		}
		total := 0.0
		blocks := make([][]float64, workers)
		for j, req := range reqs {
			var reply SolveReply
			if err := req.GetResponse(func(dd *cdr.Decoder) error { return reply.UnmarshalCDR(dd) }); err != nil {
				if solveErr == nil {
					solveErr = fmt.Errorf("rosen: worker %d solve: %w", j, err)
				}
				continue
			}
			total += reply.Value
			blocks[j] = reply.Block
			res.WorkerCalls++
			res.Evaluations += reply.Evaluations
			res.SequentialSeconds += float64(reply.Evaluations) * m.cfg.EvalCost * float64(workerDims[j])
		}
		if solveErr == nil && (!haveBest || total < bestF) {
			haveBest = true
			bestF = total
			bestBoundary = append([]float64(nil), boundary...)
			bestBlocks = blocks
		}
		rspan.EndErr(solveErr)
		if m.cfg.AfterRound != nil {
			m.cfg.AfterRound(round)
		}
		return total
	}

	if _, err := opt.MinimizeComplexBox(managerObj, mb, opt.ComplexBoxOptions{
		MaxIterations: m.cfg.ManagerIterations,
		Seed:          m.cfg.Seed,
		Stop: func() bool {
			return ctx.Err() != nil || solveErr != nil ||
				(interrupted != nil && interrupted())
		},
	}); err != nil {
		return nil, err
	}
	if solveErr != nil {
		return nil, solveErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if interrupted != nil && interrupted() {
		return nil, errInterrupted
	}

	res.Rounds = round
	res.F = bestF
	res.Boundary = bestBoundary
	if bestBlocks != nil {
		if x, err := d.Assemble(bestBoundary, bestBlocks); err == nil {
			res.X = x
		}
	}
	if m.clockHost != nil {
		res.Runtime = m.clockHost.Clock().Now() - startVirtual
	} else {
		res.Runtime = time.Since(startWall).Seconds()
	}
	return res, nil
}
