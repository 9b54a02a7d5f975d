package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleCase draws one MinimizeComplexBox problem from rng. It returns a
// constructor rather than options because a Stop that fires mid-run counts
// its polls, and each of the two runs compared needs its own counter.
func oracleCase(rng *rand.Rand) (name string, obj Objective, b Bounds, mk func() ComplexBoxOptions) {
	n := 1 + rng.Intn(16)
	b = Bounds{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := range b.Lo {
		b.Lo[i] = rng.Float64()*4 - 3
		b.Hi[i] = b.Lo[i] + 0.01 + rng.Float64()*4
	}
	objName := "rosenbrock"
	obj = Rosenbrock
	switch rng.Intn(3) {
	case 1:
		objName, obj = "sphere", Sphere
	case 2:
		// A worker's subproblem objective, boundary values included.
		objName = "shifted"
		shift := make([]float64, n)
		for i := range shift {
			shift[i] = rng.Float64()*2 - 1
		}
		obj = func(x []float64) float64 {
			var s float64
			for i, v := range x {
				d := v - shift[i]
				s += d * d * float64(i+1)
			}
			return s + Rosenbrock(x)
		}
	}

	iters := 1 + rng.Intn(300)
	seed := rng.Int63()
	var tol float64
	if rng.Intn(4) == 0 {
		tol = math.Pow(10, -float64(1+rng.Intn(8)))
	}
	var start []float64
	startName := "none"
	switch rng.Intn(3) {
	case 1: // inside the box
		startName = "inside"
		start = make([]float64, n)
		for i := range start {
			start[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
		}
	case 2: // outside the box: clipped onto its boundary
		startName = "outside"
		start = make([]float64, n)
		for i := range start {
			start[i] = b.Lo[i] - 1 - rng.Float64()*3
			if rng.Intn(2) == 0 {
				start[i] = b.Hi[i] + 1 + rng.Float64()*3
			}
		}
	}
	var feasible func([]float64) bool
	feasName := "none"
	switch rng.Intn(5) {
	case 1: // convex: a half-space through the box's middle
		feasName = "halfspace"
		a := make([]float64, n)
		var mid float64
		for i := range a {
			a[i] = rng.Float64()*2 - 1
			mid += a[i] * (b.Lo[i] + b.Hi[i]) / 2
		}
		feasible = func(x []float64) bool {
			var s float64
			for i, v := range x {
				s += a[i] * v
			}
			return s >= mid
		}
	case 2: // non-convex: a hole around the box's middle
		feasName = "hole"
		feasible = func(x []float64) bool {
			var s float64
			for i, v := range x {
				d := (v - (b.Lo[i]+b.Hi[i])/2) / (b.Hi[i] - b.Lo[i])
				s += d * d
			}
			return s >= 0.01
		}
	case 3: // unsatisfiable
		feasName = "never"
		feasible = func([]float64) bool { return false }
	}
	stopAt := -1
	if rng.Intn(4) == 0 {
		stopAt = rng.Intn(iters + 1)
	}
	name = fmt.Sprintf("n=%d obj=%s iters=%d tol=%g start=%s feasible=%s stop=%d seed=%d",
		n, objName, iters, tol, startName, feasName, stopAt, seed)
	mk = func() ComplexBoxOptions {
		o := ComplexBoxOptions{
			MaxIterations: iters, Tolerance: tol, Seed: seed,
			Start: start, Feasible: feasible,
		}
		if stopAt >= 0 {
			polls := 0
			o.Stop = func() bool { polls++; return polls > stopAt }
		}
		return o
	}
	return name, obj, b, mk
}

// TestComplexBoxMatchesReference runs thousands of seeded problems through
// MinimizeComplexBox and the reference body and requires the same bits in
// every field of the result, or the same error.
func TestComplexBoxMatchesReference(t *testing.T) {
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	rng := rand.New(rand.NewSource(20001965))
	seen := map[string]int{}
	for c := 0; c < cases; c++ {
		name, obj, b, mk := oracleCase(rng)
		got, gerr := MinimizeComplexBox(obj, b, mk())
		want, werr := referenceComplexBox(obj, b, mk())
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("case %d (%s): error %v, reference %v", c, name, gerr, werr)
		}
		if gerr != nil {
			seen["error"]++
			continue
		}
		if math.Float64bits(got.F) != math.Float64bits(want.F) ||
			got.Iterations != want.Iterations || got.Evaluations != want.Evaluations ||
			got.Converged != want.Converged || len(got.X) != len(want.X) {
			t.Fatalf("case %d (%s):\n got F=%v %d iterations %d evaluations converged=%v\nwant F=%v %d iterations %d evaluations converged=%v",
				c, name, got.F, got.Iterations, got.Evaluations, got.Converged,
				want.F, want.Iterations, want.Evaluations, want.Converged)
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("case %d (%s): X[%d] = %v, reference %v", c, name, i, got.X[i], want.X[i])
			}
		}
		if got.Converged {
			seen["converged"]++
		}
		if got.Iterations < mk().MaxIterations && !got.Converged {
			seen["stopped"]++
		}
	}
	// The draw must reach every way a run ends.
	for _, k := range []string{"error", "converged", "stopped"} {
		if seen[k] == 0 {
			t.Errorf("no case ended %s", k)
		}
	}
}

// workerShape is one worker solve as the rosen workload runs it: block 3
// of the 100-dimensional problem split over 7 workers, 100 iterations,
// warm-started from an earlier solve's best point.
func workerShape(tb testing.TB) (Objective, Bounds, ComplexBoxOptions) {
	d, err := NewDecomposition(100, 7)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	boundary := make([]float64, d.ManagerDim())
	for i := range boundary {
		boundary[i] = rng.Float64()*4 - 2
	}
	obj, err := d.SubproblemObjective(3, boundary)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := d.SubproblemBounds(3, UniformBounds(100, -2.048, 2.048))
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := MinimizeComplexBox(obj, b, ComplexBoxOptions{MaxIterations: 100, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return obj, b, ComplexBoxOptions{MaxIterations: 100, Seed: 2, Start: warm.X}
}

// TestComplexBoxAllocationCeiling pins what a solve allocates: the random
// source, the shared backing array, the row headers, the values and the
// result's X. An allocation per iteration would add a hundred.
func TestComplexBoxAllocationCeiling(t *testing.T) {
	obj, b, o := workerShape(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := MinimizeComplexBox(obj, b, o); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("a solve makes %v allocations, want at most 5", allocs)
	}
}

func BenchmarkMinimizeComplexBoxWorker(b *testing.B) {
	obj, bounds, o := workerShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	var evals int
	for i := 0; i < b.N; i++ {
		res, err := MinimizeComplexBox(obj, bounds, o)
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evaluations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
