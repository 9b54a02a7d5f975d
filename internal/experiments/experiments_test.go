package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// tinyFig3 keeps the sweep small enough for unit testing while preserving
// the paper's structure.
func tinyFig3() Figure3Config {
	return Figure3Config{
		Hosts:             7,
		LoadedCounts:      []int{0, 2, 4},
		BackgroundProcs:   1,
		Cases:             []Figure3Case{{N: 12, Workers: 3, WorkerHosts: 5}},
		WorkerIterations:  40,
		ManagerIterations: 4,
		Seed:              1,
		EvalCost:          0.01,
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	series, err := RunFigure3(tinyFig3())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Points) != 3 {
		t.Fatalf("series shape: %+v", series)
	}
	pts := series[0].Points

	// Claim 1: with no background load the two services perform equally
	// (same placement quality, same deterministic numerics).
	p0 := pts[0]
	if rel := (p0.Plain - p0.Winner) / p0.Plain; rel > 0.05 || rel < -0.05 {
		t.Fatalf("unloaded cell differs: plain %v winner %v", p0.Plain, p0.Winner)
	}

	// Claim 2: with 2 of 5 worker hosts loaded and only 3 workers,
	// Winner avoids the loaded hosts entirely — its runtime stays at the
	// unloaded level while plain degrades.
	p2 := pts[1]
	if p2.Winner > p0.Winner*1.05 {
		t.Fatalf("winner did not avoid loaded hosts: %v vs unloaded %v", p2.Winner, p0.Winner)
	}
	if p2.Plain < p2.Winner*1.3 {
		t.Fatalf("plain not visibly slower: plain %v winner %v", p2.Plain, p2.Winner)
	}

	// Claim 3: Winner is never worse than plain.
	sum := series[0].Summarize()
	if !sum.NeverWorse {
		t.Fatalf("winner worse than plain somewhere: %+v", pts)
	}
	if sum.BestReduction < 20 {
		t.Fatalf("best reduction only %.1f%%", sum.BestReduction)
	}

	// Claim 4: with most hosts loaded the advantage diminishes.
	p4 := pts[2] // 4 of 5 worker hosts loaded, 3 workers → at least 2 on loaded hosts
	if p4.Reduction() >= p2.Reduction() {
		t.Fatalf("advantage did not diminish: %.1f%% -> %.1f%%", p2.Reduction(), p4.Reduction())
	}
}

func TestFigure3Deterministic(t *testing.T) {
	a, err := RunFigure3(tinyFig3())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure3(tinyFig3())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a[0].Points {
		if a[0].Points[i] != b[0].Points[i] {
			t.Fatalf("nondeterministic point %d: %+v vs %+v", i, a[0].Points[i], b[0].Points[i])
		}
	}
}

// TestFigure3MatchesExperimentsDoc renders what rosenbench -experiment
// fig3 prints (the default configuration, seed 1) and requires its series
// to equal, digit for digit, the block EXPERIMENTS.md quotes: the virtual
// runtimes are deterministic, so any drift in the optimizer, the
// simulator or placement shows here.
func TestFigure3MatchesExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(doc), "Measured (virtual seconds):\n\n```\n")
	want, _, closed := strings.Cut(after, "```")
	if !ok || !closed {
		t.Fatal("EXPERIMENTS.md has no fenced Figure 3 block after \"Measured (virtual seconds):\"")
	}
	series, err := RunFigure3(DefaultFigure3Config())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFigure3(&sb, series)
	// The block leaves out the two title lines and the blank line below.
	_, got, _ := strings.Cut(sb.String(), "\n\n")
	if got != want {
		t.Fatalf("rosenbench -experiment fig3 differs from EXPERIMENTS.md:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFigure3RejectsOversizedCase(t *testing.T) {
	cfg := tinyFig3()
	cfg.Cases = []Figure3Case{{N: 12, Workers: 3, WorkerHosts: 99}}
	if _, err := RunFigure3(cfg); err == nil {
		t.Fatal("oversized case accepted")
	}
}

// tinyTable1 is the Table 1 sweep at test size: a budget at which the
// middleware is most of a worker call and one at which the solve is.
func tinyTable1() Table1Config {
	return Table1Config{
		N: 20, Workers: 3,
		Iterations:        []int{2, 2000},
		ManagerIterations: 2,
		Seed:              1,
		// Each cell is the minimum of three runs: one wall-clock sample of
		// a few milliseconds is at the mercy of whatever else the host is
		// doing.
		Repeats: 3,
	}
}

// requestsPerCall runs one Table 1 cell and returns how many requests the
// manager's ORB sent per worker call, placement excluded. Unlike the
// cell's runtime it is exact: the cost of a call counted, not timed.
func requestsPerCall(t *testing.T, iters int, useProxy bool) uint64 {
	t.Helper()
	cell, err := runTable1Cell(tinyTable1(), iters, useProxy)
	if err != nil {
		t.Fatal(err)
	}
	if cell.calls == 0 || cell.sent%uint64(cell.calls) != 0 {
		t.Fatalf("iters=%d proxy=%v: %d requests for %d worker calls", iters, useProxy, cell.sent, cell.calls)
	}
	return cell.sent / uint64(cell.calls)
}

// onAQuietHost is for what only the clock can say. The tests below assert
// Table 1's structure by counting requests; the direction of its
// wall-clock numbers they check as well, but a few milliseconds measured
// while the rest of the suite runs beside them can point anywhere, so the
// measurement gets three tries to find a quiet moment.
func onAQuietHost(t *testing.T, measure func() error) {
	t.Helper()
	var err error
	for try := 1; try <= 3; try++ {
		if err = measure(); err == nil {
			return
		}
		t.Logf("try %d: %v", try, err)
	}
	t.Fatal(err)
}

func TestTable1OverheadShrinksWithWork(t *testing.T) {
	// What a proxy adds to a worker call does not depend on how long the
	// call computes: one more request, at either budget.
	cfg := tinyTable1()
	for _, iters := range cfg.Iterations {
		plain, proxy := requestsPerCall(t, iters, false), requestsPerCall(t, iters, true)
		if proxy-plain != 1 {
			t.Fatalf("iters=%d: %d requests per call with proxies, %d without, want one more", iters, proxy, plain)
		}
	}
	// So, the paper's core observation: "the relative slowdown is lower
	// the more time is spent in the called method". Only the direction is
	// required, with generous slack.
	onAQuietHost(t, func() error {
		rows, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.Plain <= 0 || r.Proxy <= 0 {
				t.Fatalf("non-positive runtime: %+v", r)
			}
			if r.Checkpoints == 0 {
				t.Fatalf("no checkpoints recorded: %+v", r)
			}
		}
		if rows[1].Plain <= rows[0].Plain {
			return fmt.Errorf("a thousand times the iterations ran no longer: %+v", rows)
		}
		if rows[1].OverheadPct() > rows[0].OverheadPct()+25 {
			return fmt.Errorf("overhead did not shrink: %v%% -> %v%%", rows[0].OverheadPct(), rows[1].OverheadPct())
		}
		return nil
	})
}

func TestTable1ProxyCostsMoreThanPlain(t *testing.T) {
	// The structural fact under Table 1, counted on the manager's ORB: a
	// worker call through a plain stub is one request; through a proxy
	// that checkpoints every call it is two — the call, whose reply brings
	// the state back, and the store put.
	cfg := tinyTable1()
	tiny := cfg.Iterations[0]
	if n := requestsPerCall(t, tiny, false); n != 1 {
		t.Fatalf("plain stubs: %d requests per worker call, want 1", n)
	}
	if n := requestsPerCall(t, tiny, true); n != 2 {
		t.Fatalf("proxies: %d requests per worker call, want 2 (call + put)", n)
	}
	// The clock agrees in direction at tiny per-call work, where the
	// second request is most of the call.
	cfg.Iterations = []int{tiny}
	onAQuietHost(t, func() error {
		rows, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Proxy <= rows[0].Plain {
			return fmt.Errorf("proxy not slower at tiny work: %+v", rows[0])
		}
		return nil
	})
}

func TestMixedClusterAblationWinnerFaster(t *testing.T) {
	plain, winner, err := RunMixedClusterAblation()
	if err != nil {
		t.Fatal(err)
	}
	if !(winner < plain) {
		t.Fatalf("winner %v not faster than plain %v", winner, plain)
	}
}

func TestReplicationAblationCostOrdering(t *testing.T) {
	single, err := RunReplicationAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := RunReplicationAblation(2)
	if err != nil {
		t.Fatal(err)
	}
	if !(dual > single*1.2) {
		t.Fatalf("replication cost invisible: %v vs %v", dual, single)
	}
}

func TestSelectionAblationPolicies(t *testing.T) {
	winnerRT, err := RunSelectionAblation("winner")
	if err != nil {
		t.Fatal(err)
	}
	rrRT, err := RunSelectionAblation("roundrobin")
	if err != nil {
		t.Fatal(err)
	}
	if !(winnerRT < rrRT) {
		t.Fatalf("winner %v not faster than round-robin %v", winnerRT, rrRT)
	}
	for _, p := range []string{"random", "first"} {
		if _, err := RunSelectionAblation(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	if _, err := RunSelectionAblation("nonsense"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDecompositionAblationSpeedup(t *testing.T) {
	two, err := RunDecompositionAblation(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	five, err := RunDecompositionAblation(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(five < two) {
		t.Fatalf("5 workers (%v) not faster than 2 (%v)", five, two)
	}
}

func TestTable1AblationCheckpointFrequency(t *testing.T) {
	cfg := Table1Config{N: 12, Workers: 3, Iterations: []int{50},
		ManagerIterations: 2, Seed: 1, Repeats: 1}
	everyCall, err := RunTable1Ablation(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	every10, err := RunTable1Ablation(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if everyCall[0].Checkpoints <= every10[0].Checkpoints {
		t.Fatalf("checkpoint counts not ordered: %d vs %d",
			everyCall[0].Checkpoints, every10[0].Checkpoints)
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	f := DefaultFigure3Config()
	if f.Hosts != 10 || len(f.Cases) != 2 || len(f.LoadedCounts) != 5 {
		t.Fatalf("fig3 default = %+v", f)
	}
	tb := DefaultTable1Config()
	if tb.N != 100 || tb.Workers != 7 || len(tb.Iterations) == 0 {
		t.Fatalf("table1 default = %+v", tb)
	}
}

func TestLatencyAblationMonotone(t *testing.T) {
	lan, err := RunLatencyAblation(0)
	if err != nil {
		t.Fatal(err)
	}
	wan, err := RunLatencyAblation(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if wan <= lan {
		t.Fatalf("latency had no cost: %v vs %v", wan, lan)
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	series := []Figure3Series{{
		Case:   Figure3Case{N: 30, Workers: 3, WorkerHosts: 5},
		Points: []Figure3Point{{Loaded: 0, Plain: 100, Winner: 100}, {Loaded: 2, Plain: 140, Winner: 100}},
	}}
	RenderFigure3(&sb, series)
	out := sb.String()
	for _, want := range []string{"Figure 3", "30/3", "CORBA/Winner", "never worse: true", "28.6%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}

	sb.Reset()
	RenderTable1(&sb, []Table1Row{{Iterations: 10000, Plain: 1, Proxy: 3.2, Checkpoints: 70}})
	out = sb.String()
	for _, want := range []string{"Table 1", "10000", "220.0%", "70"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	sb.Reset()
	RenderSeparator(&sb)
	if sb.Len() == 0 {
		t.Fatal("separator empty")
	}
}

func TestFigure3PointReduction(t *testing.T) {
	if r := (Figure3Point{Plain: 0, Winner: 0}).Reduction(); r != 0 {
		t.Fatalf("zero plain reduction = %v", r)
	}
	if r := (Figure3Point{Plain: 200, Winner: 100}).Reduction(); r != 50 {
		t.Fatalf("reduction = %v", r)
	}
}

func TestTable1RowOverhead(t *testing.T) {
	if o := (Table1Row{Plain: 0}).OverheadPct(); o != 0 {
		t.Fatalf("overhead = %v", o)
	}
	if o := (Table1Row{Plain: 2, Proxy: 3}).OverheadPct(); o != 50 {
		t.Fatalf("overhead = %v", o)
	}
}
