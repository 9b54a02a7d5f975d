package opt

import (
	"fmt"
	"math/rand"
)

// Box's recommended constants for the complex method.
const (
	// populationFactor sets the complex size k = populationFactor·n
	// (the population is at least n+1).
	populationFactor = 2
	// alpha is the over-reflection coefficient.
	alpha = 1.3
	// maxRetractions bounds the move-toward-centroid retries for a
	// reflected point that stays worst.
	maxRetractions = 10
)

// ComplexBoxOptions tune the Complex Box optimizer.
type ComplexBoxOptions struct {
	// MaxIterations bounds the main loop; it is the worker's stopping
	// criterion the paper varies in Table 1. Default 1000.
	MaxIterations int
	// Tolerance stops early when the complex's objective spread falls
	// below it. Zero disables early stopping (deterministic work, used by
	// the benchmarks).
	Tolerance float64
	// Seed makes the run reproducible.
	Seed int64
	// Start optionally seeds the complex with a known point.
	Start []float64
	// Feasible, when set, is Box's implicit constraint test: candidate
	// points violating it are pulled toward the centroid until feasible
	// (initial points are resampled). The feasible region must be convex
	// for the retraction to be guaranteed to terminate; as a safeguard an
	// infeasible point is rejected after maxRetractions pulls.
	Feasible func(x []float64) bool
	// Stop, when set, is polled before each main-loop iteration; returning
	// true ends the run early with the best point found so far. Servants
	// hook their request context's Done here so a cancelled caller stops
	// burning CPU.
	Stop func() bool
}

func (o ComplexBoxOptions) withDefaults() ComplexBoxOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1000
	}
	return o
}

// Result reports the outcome of an optimization run.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of main-loop iterations executed.
	Iterations int
	// Evaluations is the number of objective evaluations performed.
	Evaluations int
	// Converged reports whether the tolerance criterion stopped the run.
	Converged bool
}

// MinimizeComplexBox runs Box's complex method: maintain a "complex" of k
// points inside the bounds; repeatedly reflect the worst point through the
// centroid of the others by factor alpha, retracting it halfway toward the
// centroid while it remains worst.
//
// The main loop allocates nothing: the k points, a spare row the
// candidate is built in and the centroid share one backing array, and an
// accepted candidate swaps rows with the worst point it replaces. The
// objective and Feasible therefore see rows that are rewritten later and
// must not keep x.
func MinimizeComplexBox(obj Objective, bounds Bounds, opts ComplexBoxOptions) (Result, error) {
	if err := bounds.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	n := bounds.Dim()
	k := populationFactor * n
	if k < n+1 {
		k = n + 1
	}
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	var res Result
	eval := func(x []float64) float64 {
		res.Evaluations++
		return obj(x)
	}

	feasible := opts.Feasible
	if feasible == nil {
		feasible = func([]float64) bool { return true }
	}

	// Rows 0..k-1 of store hold the complex, row k is the spare and the
	// last n entries the centroid.
	store := make([]float64, (k+2)*n)
	points := make([][]float64, k)
	for j := range points {
		points[j] = store[j*n : (j+1)*n : (j+1)*n]
	}
	spare := store[k*n : (k+1)*n : (k+1)*n]
	c := store[(k+1)*n:]
	values := make([]float64, k)

	// Initial complex: random points in the box, optionally seeded with a
	// start point. Infeasible random points are resampled (Box pulls them
	// toward the centroid of the feasible ones; resampling is equivalent
	// for initialization and simpler to reason about).
	const maxResamples = 1000
	for j := 0; j < k; j++ {
		p := points[j]
		if j == 0 && len(opts.Start) == n {
			copy(p, opts.Start)
			bounds.Clip(p)
			if !feasible(p) {
				return Result{}, fmt.Errorf("opt: start point violates the implicit constraints")
			}
		} else {
			found := false
			for try := 0; try < maxResamples; try++ {
				for i := 0; i < n; i++ {
					p[i] = bounds.Lo[i] + rng.Float64()*(bounds.Hi[i]-bounds.Lo[i])
				}
				if feasible(p) {
					found = true
					break
				}
			}
			if !found {
				return Result{}, fmt.Errorf("opt: could not sample a feasible point in %d tries", maxResamples)
			}
		}
		values[j] = eval(p)
	}

	worstAndBest := func() (worst, best int) {
		for j := 1; j < k; j++ {
			if values[j] > values[worst] {
				worst = j
			}
			if values[j] < values[best] {
				best = j
			}
		}
		return
	}

	for it := 0; it < opts.MaxIterations; it++ {
		if opts.Stop != nil && opts.Stop() {
			break
		}
		res.Iterations = it + 1
		worst, best := worstAndBest()
		if opts.Tolerance > 0 && values[worst]-values[best] < opts.Tolerance {
			res.Converged = true
			break
		}
		centroid(c, points, worst)
		// Over-reflection of the worst point through the centroid.
		cand := spare
		for i := 0; i < n; i++ {
			cand[i] = c[i] + alpha*(c[i]-points[worst][i])
		}
		bounds.Clip(cand)
		// Pull an implicitly infeasible candidate halfway toward the
		// centroid (Box's constraint handling). If it never becomes
		// feasible, keep the old worst point for this iteration.
		okPoint := true
		for r := 0; !feasible(cand); r++ {
			if r >= maxRetractions {
				okPoint = false
				break
			}
			for i := 0; i < n; i++ {
				cand[i] = (cand[i] + c[i]) / 2
			}
		}
		if !okPoint {
			continue
		}
		f := eval(cand)
		// Retract toward the centroid while the candidate stays worst.
		for r := 0; f > values[worst] && r < maxRetractions; r++ {
			for i := 0; i < n; i++ {
				cand[i] = (cand[i] + c[i]) / 2
			}
			if feasible(cand) {
				f = eval(cand)
			}
		}
		if !feasible(cand) {
			// Retraction left a non-convex region's boundary between the
			// candidate and the centroid; keep the old point.
			continue
		}
		points[worst], spare = cand, points[worst]
		values[worst] = f
	}

	_, best := worstAndBest()
	res.X = append([]float64(nil), points[best]...)
	res.F = values[best]
	return res, nil
}

// centroid writes into c the mean of points without points[skip]. Each
// coordinate's sum starts at zero and adds the points in ascending order,
// so it is bit for bit the one-coordinate-at-a-time sum; keeping 8, then
// 4, then 1 coordinates in separate accumulators only lets the additions
// of different coordinates overlap instead of waiting on one another.
func centroid(c []float64, points [][]float64, skip int) {
	n := len(c)
	m := float64(len(points) - 1)
	i := 0
	for ; i+8 <= n; i += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j, row := range points {
			if j == skip {
				continue
			}
			p := row[i : i+8 : i+8]
			s0 += p[0]
			s1 += p[1]
			s2 += p[2]
			s3 += p[3]
			s4 += p[4]
			s5 += p[5]
			s6 += p[6]
			s7 += p[7]
		}
		d := c[i : i+8 : i+8]
		d[0], d[1], d[2], d[3] = s0/m, s1/m, s2/m, s3/m
		d[4], d[5], d[6], d[7] = s4/m, s5/m, s6/m, s7/m
	}
	for ; i+4 <= n; i += 4 {
		var s0, s1, s2, s3 float64
		for j, row := range points {
			if j == skip {
				continue
			}
			p := row[i : i+4 : i+4]
			s0 += p[0]
			s1 += p[1]
			s2 += p[2]
			s3 += p[3]
		}
		d := c[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = s0/m, s1/m, s2/m, s3/m
	}
	for ; i < n; i++ {
		var s float64
		for j, row := range points {
			if j != skip {
				s += row[i]
			}
		}
		c[i] = s / m
	}
}

// String renders a result compactly.
func (r Result) String() string {
	return fmt.Sprintf("f=%.6g after %d iterations / %d evaluations (converged=%v)",
		r.F, r.Iterations, r.Evaluations, r.Converged)
}
