package rosen

import (
	"context"
	"sync"

	"repro/internal/cdr"
	"repro/internal/cluster"
	"repro/internal/opt"
	"repro/internal/orb"
)

// Worker is the subproblem-solver servant. It is stateful — it keeps the
// best block solution seen so far as a warm start for the next solve —
// and checkpointable, so it can be driven through the fault-tolerance
// proxies: after a crash, the warm-start state is restored into a fresh
// worker and the computation continues rather than starting cold.
type Worker struct {
	// host, when set, charges virtual compute cost per objective
	// evaluation (Figure 3 simulation mode). When nil the worker runs in
	// real time (Table 1 measurement mode).
	host *cluster.Host

	mu     sync.Mutex
	warm   []float64
	warmF  float64
	solves int64
}

// NewWorker creates a worker. host may be nil for real-time mode.
func NewWorker(host *cluster.Host) *Worker { return &Worker{host: host, warmF: 0} }

// TypeID implements orb.Servant.
func (w *Worker) TypeID() string { return WorkerTypeID }

// Solves returns the number of solve calls served.
func (w *Worker) Solves() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.solves
}

// Invoke implements orb.Servant.
func (w *Worker) Invoke(sctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != OpSolve {
		return orb.BadOperation(op)
	}
	var req SolveRequest
	if err := req.UnmarshalCDR(in); err != nil {
		return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
	}
	reply, err := w.solve(sctx.Context(), &req)
	if err != nil {
		return err
	}
	reply.MarshalCDR(out)
	return nil
}

// solve runs one Complex Box optimization of the worker's subproblem.
// The iteration loop polls ctx so a cancelled or expired caller stops the
// optimization instead of burning the host for a reply nobody wants.
func (w *Worker) solve(ctx context.Context, req *SolveRequest) (*SolveReply, error) {
	d, err := opt.NewDecomposition(int(req.N), int(req.Workers))
	if err != nil {
		return nil, &orb.UserException{RepoID: ExBadSolve, Detail: err.Error()}
	}
	if int(req.Index) < 0 || int(req.Index) >= int(req.Workers) {
		return nil, &orb.UserException{RepoID: ExBadSolve, Detail: "worker index out of range"}
	}
	if req.Lo >= req.Hi {
		return nil, &orb.UserException{RepoID: ExBadSolve, Detail: "empty bounds"}
	}
	obj, err := d.SubproblemObjective(int(req.Index), req.Boundary)
	if err != nil {
		return nil, &orb.UserException{RepoID: ExBadSolve, Detail: err.Error()}
	}
	// The global bounds are uniform, so the block's are too.
	bounds := opt.UniformBounds(d.WorkerDims()[req.Index], req.Lo, req.Hi)

	// Charge virtual CPU per evaluation in simulation mode. The cost
	// scales with the subproblem dimension, like the real flop count.
	charged := obj
	if w.host != nil && req.EvalCost > 0 {
		unit := req.EvalCost * float64(bounds.Dim())
		host := w.host
		charged = func(x []float64) float64 {
			_ = host.Compute(unit)
			return obj(x)
		}
		host.BeginJob()
		defer host.EndJob()
	}

	w.mu.Lock()
	var start []float64
	if len(w.warm) == bounds.Dim() {
		start = append([]float64(nil), w.warm...)
	}
	w.mu.Unlock()

	// Polled once per iteration: a receive that does not block, where
	// ctx.Err() would take the context's lock.
	done := ctx.Done()
	res, err := opt.MinimizeComplexBox(charged, bounds, opt.ComplexBoxOptions{
		MaxIterations: int(req.MaxIterations),
		Seed:          req.Seed,
		Start:         start,
		Stop: func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		},
	})
	if err != nil {
		return nil, &orb.SystemException{Kind: orb.ExInternal, Detail: err.Error()}
	}
	if w.host != nil && w.host.Failed() {
		return nil, orb.CommFailure("host failed during solve")
	}
	if cerr := ctx.Err(); cerr != nil {
		// The caller is gone; report the abort instead of a bogus result
		// (the reply is discarded client-side anyway).
		kind := orb.ExCancelled
		if cerr == context.DeadlineExceeded {
			kind = orb.ExTimeout
		}
		return nil, &orb.SystemException{Kind: kind, Detail: "solve aborted: " + cerr.Error()}
	}

	w.mu.Lock()
	w.solves++
	if w.warm == nil || bounds.Dim() != len(w.warm) || res.F <= w.warmF {
		w.warm = append([]float64(nil), res.X...)
		w.warmF = res.F
	}
	w.mu.Unlock()

	return &SolveReply{Block: res.X, Value: res.F, Evaluations: int64(res.Evaluations)}, nil
}

// Checkpoint implements ft.Checkpointable: the serialized warm-start
// state.
func (w *Worker) Checkpoint() ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := cdr.NewEncoder(32 + 8*len(w.warm))
	e.PutFloat64Seq(w.warm)
	e.PutFloat64(w.warmF)
	e.PutInt64(w.solves)
	return e.Bytes(), nil
}

// Restore implements ft.Checkpointable.
func (w *Worker) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	warm := d.GetFloat64Seq()
	warmF := d.GetFloat64()
	solves := d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	w.warm = warm
	w.warmF = warmF
	w.solves = solves
	w.mu.Unlock()
	return nil
}
