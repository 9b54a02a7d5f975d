package opt

import (
	"fmt"
	"math/rand"
)

// MinimizeComplexBox is pinned against the body it had before its main
// loop stopped allocating and its centroid was summed in lanes, kept here
// verbatim as the reference: a fresh centroid and a fresh candidate per
// iteration, each coordinate summed by one running add over the points.

func referenceComplexBox(obj Objective, bounds Bounds, opts ComplexBoxOptions) (Result, error) {
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

	// Initial complex: random points in the box, optionally seeded with a
	// start point. Infeasible random points are resampled (Box pulls them
	// toward the centroid of the feasible ones; resampling is equivalent
	// for initialization and simpler to reason about).
	points := make([][]float64, k)
	values := make([]float64, k)
	const maxResamples = 1000
	for j := 0; j < k; j++ {
		p := make([]float64, n)
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
		points[j] = p
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

	centroidExcluding := func(skip int) []float64 {
		c := make([]float64, n)
		for j := 0; j < k; j++ {
			if j == skip {
				continue
			}
			for i := 0; i < n; i++ {
				c[i] += points[j][i]
			}
		}
		for i := 0; i < n; i++ {
			c[i] /= float64(k - 1)
		}
		return c
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
		c := centroidExcluding(worst)
		// Over-reflection of the worst point through the centroid.
		cand := make([]float64, n)
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
		points[worst] = cand
		values[worst] = f
	}

	_, best := worstAndBest()
	res.X = append([]float64(nil), points[best]...)
	res.F = values[best]
	return res, nil
}
