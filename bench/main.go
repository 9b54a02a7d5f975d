// Command bench is the repository's benchmark: it builds every deployment
// in one process (client and server ORBs over loopback TCP), runs one of
// six closed-loop workloads, checks the outputs and prints every metric as
// "workload metric value unit", then one JSON object on the last line.
//
//	go -C bench run . --workload plain_call --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one set of inputs the benchmark runs. Each has a primary
// operation and a paired one (the baseline it is compared with, or the
// operation an optimisation of the primary is most likely to hurt).
type workload interface {
	// setup builds the deployment and warms it with a fixed operation count.
	setup() error
	// run measures blocks of the two operations for about d.
	run(d time.Duration, tr *recorder)
	// check verifies the outputs once the run is over.
	check() error
	phases() (primary, paired *phase)
	firstFailure() error
	theWorld() *world
	close()
}

// spec names a workload and says why it is in the set.
type spec struct {
	name string
	why  string
	// floats and state size the layer probes like the workload's own calls:
	// payload and servant state, in float64s.
	floats, state int
	make          func(seed int64, trace bool, h *host) workload
}

var specs = []spec{
	{"plain_call", "smallest message, so per-message cost in cdr, giop, orb client and reactor dominates; ft, naming, winner idle",
		smallFloats, smallState, func(s int64, t bool, h *host) workload { return &plainCall{base: newBase(s, t, h)} }},
	{"proxy_call", "Table 1's per-call path: call + _get_checkpoint + store put, ft does most of the work; interleaved no-checkpoint twin",
		smallFloats, smallState, func(s int64, t bool, h *host) workload { return &proxyCall{base: newBase(s, t, h), dim: smallState} }},
	{"bulk", "64 KiB payloads and state: bytes, copies and checkpoint size dominate, per-message cost is noise",
		bulkFloats, bulkFloats, func(s int64, t bool, h *host) workload { return &bulk{base: newBase(s, t, h)} }},
	{"resolve_mix", "the load-distribution path at the deployed ratio: Winner-ranked resolves (7%) beside load reports (86%) and offer churn (7%)",
		smallFloats, smallState, func(s int64, t bool, h *host) workload { return &resolveMix{base: newBase(s, t, h)} }},
	{"recovery", "kill the server, time the next call (unbind, resolve, get, restore, replay on a fresh connection); paired with planned migration",
		smallFloats, smallState, func(s int64, t bool, h *host) workload { return &recovery{base: newBase(s, t, h)} }},
	{"rosen", "the paper's application: N=100, 7 workers, compute dominates and 7 calls are in flight; plain stubs paired with FT proxies",
		smallFloats, smallState, func(s int64, t bool, h *host) workload {
			return &rosenRun{base: newBase(s, t, h), managerIters: rosenManagerIter}
		}},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// outDir holds what a run leaves behind: trace files and host.json.
const outDir = "out"

// setupReps is how many times a run sets the deployment up; setup_s is the
// median, and the last deployment is the one measured.
const setupReps = 7

// procs is the GOMAXPROCS every run measures under. Callers, client ORB
// and server ORBs share this one process on a 2-core shared host; with two
// Ps each call crosses threads through futex wake-ups whose cost depends on
// where the host puts the threads, and ten runs of the same code spread by
// 25-37 %. With one P a call is the CPU work along its path and nothing
// else, and the same runs spread by 1-3 % (README.md, "Steadiness").
const procs = 1

// result is what one run of one workload reports.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildAndWarm sets the workload up setupReps times and returns the last
// deployment with the median set-up time. Like a block, a set-up starts on
// a quiet host if waiting brings one and counts only if the canary read the
// host as quiet before and after it; when none does, all count.
func buildAndWarm(sp spec, seed int64, trace bool, h *host) (workload, float64, error) {
	var times []float64
	var ends []int // the canary reading taken after each set-up
	for i := 0; ; i++ {
		if _, err := h.await(); err != nil {
			return nil, 0, err
		}
		w := sp.make(seed, trace, h)
		t0 := time.Now()
		err := w.setup()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		at, err := h.read()
		if err != nil {
			w.close()
			return nil, 0, err
		}
		ends = append(ends, at)
		if i == setupReps-1 {
			var quiet []float64
			for k, at := range ends {
				if h.quietAround(at, 0) {
					quiet = append(quiet, times[k])
				}
			}
			if len(quiet) == 0 {
				quiet = times
			}
			fmt.Printf("# set-ups: %d of %d counted\n", len(quiet), len(times))
			return w, median(quiet), nil
		}
		w.close()
	}
}

// verdict runs the workload's checks and folds in operation failures.
func verdict(w workload) error {
	if err := w.firstFailure(); err != nil {
		return fmt.Errorf("operation failed: %w", err)
	}
	return w.check()
}

// runEndToEnd is the untraced run: the only source of end-to-end metrics.
func runEndToEnd(sp spec, seed int64, seconds float64, h *host) (map[string]float64, *result, error) {
	w, setupS, err := buildAndWarm(sp, seed, false, h)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	w.run(time.Duration(seconds*float64(time.Second)), nil)
	pri, alt := w.phases()
	fmt.Printf("# canary: %d readings, quiet up to %.0f ns, %.1f s spent waiting for quiet\n", len(h.readings), h.limit(), h.waited.Seconds())
	pri.steadiness("")
	alt.steadiness("alt_")
	m := map[string]float64{
		"setup_s":    setupS,
		"tput":       pri.tput(),
		"p50_us":     pri.p50us(),
		"alt_tput":   alt.tput(),
		"alt_p50_us": alt.p50us(),
	}
	return m, &result{Attempted: pri.ops + alt.ops, Failed: pri.failed + alt.failed}, verdict(w)
}

// env records where and on what the numbers were taken.
func env(workload string, seed int64, seconds float64, trace bool) map[string]any {
	commit := "unknown" // the driver's checkout is not a git repository
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
}

// finite makes a value fit for JSON: a percentile that landed on a failed
// operation is +Inf and prints as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// report prints the metrics as "workload metric value unit" lines and the
// contract's JSON object last. cerr is the outcome of the correctness
// checks; a failed check or a failed operation makes the run an error.
func report(name string, defs []metricDef, m map[string]float64, res *result, cerr error) error {
	res.Correct = cerr == nil && res.Failed == 0
	res.Metrics = make(map[string]metricJSON, len(defs))
	for _, md := range defs {
		// A per-layer metric of a layer this workload's path does not touch
		// was not measured: the JSON, which must name every metric, carries
		// 0 for it, and the text leaves it out.
		v, measured := m[md.name]
		v = finite(v)
		if measured {
			fmt.Printf("%s %s %.6g %s\n", name, md.name, v, md.unit)
		}
		res.Metrics[md.name] = metricJSON{Value: v, Unit: md.unit}
	}
	fmt.Printf("%s attempted %d count\n%s failed %d count\n", name, res.Attempted, name, res.Failed)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if cerr != nil {
		return fmt.Errorf("%s: correctness check failed: %w", name, cerr)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func runOne(sp spec, seed int64, seconds float64, trace bool, h *host) error {
	e := env(sp.name, seed, seconds, trace)
	fmt.Printf("# %s: %s\n# env %v\n", sp.name, sp.why, e)
	if trace {
		return runTraced(sp, seed, seconds, e, h)
	}
	m, res, err := runEndToEnd(sp, seed, seconds, h)
	if res == nil {
		return err
	}
	return report(sp.name, endToEnd, m, res, err)
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all six in turn)")
	seed := flag.Int64("seed", 1, "seed for every random choice the workloads make")
	seconds := flag.Float64("seconds", 10, "how long each workload measures")
	trace := flag.Int("trace", 0, "1: run the layer probes and the traced pass, print per-layer metrics")
	selfchk := flag.Int("selfcheck", 0, "N>0: run every workload N times in two sets and compare them against the bounds")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	// One canary for the process, starting from what earlier runs in this
	// checkout learnt about the host and leaving what this one learns.
	h := &host{patient: *trace == 0}
	h.load(outDir)
	exit := func(code int) {
		h.close()
		if err := h.save(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(code)
	}

	if *selfchk > 0 {
		if !selfcheck(*selfchk, *seed, *seconds, h) {
			exit(1)
		}
		exit(0)
	}
	run := specs
	if *name != "" {
		sp, ok := findSpec(*name)
		if !ok {
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.name
			}
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, names)
			os.Exit(2)
		}
		run = []spec{sp}
	}
	for _, sp := range run {
		if err := runOne(sp, *seed, *seconds, *trace != 0, h); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit(1)
		}
	}
	exit(0)
}
