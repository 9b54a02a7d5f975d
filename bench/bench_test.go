package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	lat := []int64{10, 20, 30, 40, 50, 60, 70, 80, failedOp, failedOp}
	if got := percentile(lat, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(lat, 0.8); got != 80 {
		t.Errorf("p80 = %v, want 80", got)
	}
	if got := percentile(lat, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 over two failures = %v, want +Inf", got)
	}
	var p phase
	p.add(append([]int64(nil), lat...), time.Second, 0)
	if p.failed != 2 || p.ops != 10 || p.blocks[0].tput != 8 {
		t.Errorf("phase counted %d failed of %d, %v ops/s; want 2 of 10, 8", p.failed, p.ops, p.blocks[0].tput)
	}
}

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, have float64
	}{
		{19, 0.9, 0.5},     // 1 sample beyond p90
		{99, 0.9, 0.5},     // 9 beyond
		{100, 0.9, 0.9},    // exactly 10 beyond
		{999, 0.99, 0.9},   // 9 beyond p99
		{1000, 0.99, 0.99}, // 10 beyond p99
		{1000, 0.999, 0.99},
		{10000, 0.999, 0.999},
		{10000, 0.9, 0.9}, // never above what was asked for
	} {
		if got := supported(c.n, c.want); got != c.have {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.want, got, c.have)
		}
	}
}

func TestMedianOverBlocksAndSpread(t *testing.T) {
	var p phase
	for _, ns := range []int64{8, 1, 7, 2, 6, 3, 5} { // one-operation blocks of these latencies
		p.add([]int64{ns * 1000}, time.Second, 0)
	}
	if got := p.p50us(); got != 5 {
		t.Errorf("median over blocks = %v us, want 5", got)
	}
	if got := p.p90us(); !math.IsNaN(got) {
		t.Errorf("p90 of blocks too short to support one = %v, want NaN", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// hostWith is a host that has taken these readings.
func hostWith(readings ...float64) *host {
	h := &host{}
	for _, v := range readings {
		h.readings = append(h.readings, v)
		h.lowest = append(h.lowest, v)
	}
	sort.Float64s(h.lowest)
	if len(h.lowest) > levelRank+1 {
		h.lowest = h.lowest[:levelRank+1]
	}
	return h
}

// Only blocks with quiet canary readings around them vote, whatever they
// measured themselves; a run with no such block counts them all.
func TestOnlyQuietBlocksCount(t *testing.T) {
	// Readings 0..8; the block that ended at reading i ran between i-1 and i,
	// and needs readings i-2..i+1 quiet. 12000 is the host's slow speed.
	h := hostWith(8000, 8100, 7900, 8000, 12000, 8000, 8050, 7950, 8000)
	p := phase{host: h}
	for at, us := range []int64{1: 10, 2: 11, 3: 30, 4: 31, 5: 32, 6: 33, 7: 12, 8: 50} {
		if at > 0 {
			p.add([]int64{us * 1000}, time.Second, at)
		}
	}
	// Blocks 3..6 have the slow reading 4 within their span; 1, 2, 7, 8 do not.
	if got := p.p50us(); got != 11.5 || len(p.counted()) != 4 {
		t.Errorf("median over %d counted blocks = %v us, want 11.5 over the 4 away from the slow reading", len(p.counted()), got)
	}
	if p.ops != 8 {
		t.Errorf("%d operations attempted, want all 8: a block that does not vote still ran", p.ops)
	}
	for i := range h.readings {
		h.readings[i] = 8000 + 1000*float64(i%2) // every block has a slow reading beside it
	}
	if got := len(p.counted()); got != 8 {
		t.Errorf("%d blocks counted when none was quiet, want all 8", got)
	}
}

func TestQuietLevel(t *testing.T) {
	if got := hostWith(8000, 7900, 8100).level(); got != 7900 {
		t.Errorf("level of three readings = %v, want the fastest, 7900", got)
	}
	// One freak fast reading among many does not set the level.
	many := []float64{5000}
	for len(many) < 60 {
		many = append(many, 8000+float64(len(many)))
	}
	h := hostWith(many...)
	if got := h.level(); got != 8004 {
		t.Errorf("level of sixty readings with one freak = %v, want the fifth fastest, 8004", got)
	}
	// What an earlier run saw counts when it is faster, not when slower.
	h.known = 7800
	if got := h.level(); got != 7800 {
		t.Errorf("level = %v with 7800 known from an earlier run, want 7800", got)
	}
	h.known = 11000
	if got := h.level(); got != 8004 {
		t.Errorf("level = %v with a slower level known, want this run's 8004", got)
	}
}

// A run leaves its quiet level and its waiting for the next one.
func TestHostStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	many := make([]float64, 50)
	for i := range many {
		many[i] = 8000 + float64(i)
	}
	h := hostWith(many...)
	h.known, h.spent, h.waited = 9000, 2*time.Second, 3*time.Second
	if err := h.save(dir); err != nil {
		t.Fatal(err)
	}
	var next host
	next.load(dir)
	if next.known != 8004 || next.spent != 5*time.Second {
		t.Errorf("loaded level %v and %v waited, want 8004 and 5s", next.known, next.spent)
	}
	var fresh host
	fresh.load(t.TempDir()) // no file: a checkout's first run
	if fresh.known != 0 || fresh.spent != 0 {
		t.Errorf("a first run knows %v, %v", fresh.known, fresh.spent)
	}
}

func TestCanaryReads(t *testing.T) {
	h := &host{}
	defer h.close()
	for i := 0; i < 3; i++ {
		if at, err := h.read(); err != nil || at != i || h.readings[at] <= 0 {
			t.Fatalf("reading %d: index %d, %v, %v", i, at, h.readings, err)
		}
	}
	if fastest := math.Min(h.readings[0], math.Min(h.readings[1], h.readings[2])); h.level() != fastest {
		t.Errorf("level %v of readings %v, want the fastest", h.level(), h.readings)
	}
	// On a host that reads quiet, await takes one reading and does not wait.
	h.patient = true
	for i := range h.readings {
		h.readings[i] *= 10
	}
	for i := range h.lowest {
		h.lowest[i] *= 10
	}
	if at, err := h.await(); err != nil || at != 3 || h.waited != 0 {
		t.Errorf("await on a quiet host: reading %d, waited %v, %v", at, h.waited, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "leg", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "leg", Start: 20, End: 50},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 45},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"parent": {Name: "parent", Count: 1, TotalNs: 100, SelfNs: 50}, // 100 - (10..50) - (90..100)
		"leg":    {Name: "leg", Count: 2, TotalNs: 50, SelfNs: 30},     // span 3 loses 20 to "inner"
		"late":   {Name: "late", Count: 1, TotalNs: 30, SelfNs: 30},
		"inner":  {Name: "inner", Count: 1, TotalNs: 20, SelfNs: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %+v\nwant %+v", got, want)
	}
	var nilRec *recorder
	nilRec.end(nilRec.start("ignored", 0, 0)) // the untraced run's path must not panic
}

func TestSameSeedSameInputs(t *testing.T) {
	ops := func(seed int64) (mix []mixOp, kills []int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			mix = append(mix, genMixOp(rng))
		}
		b := &bumper{rng: rand.New(rand.NewSource(seed)), dim: smallState}
		for i := 0; i < 500; i++ {
			kills = append(kills, betweenKills(b))
		}
		return mix, kills
	}
	m1, k1 := ops(7)
	m2, k2 := ops(7)
	m3, k3 := ops(8)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(k1, k2) {
		t.Error("the same seed gave different op mixes or kill points")
	}
	if reflect.DeepEqual(m1, m3) || reflect.DeepEqual(k1, k3) {
		t.Error("different seeds gave the same op mix or kill points")
	}
	counts := map[mixKind]int{}
	for _, op := range m1 {
		counts[op.kind]++
	}
	if counts[mixReport] < 400 || counts[mixResolve] < 15 || counts[mixBind] < 15 {
		t.Errorf("op mix %v is not about 86 reports / 7 resolves / 7 binds in 100", counts)
	}
	for _, k := range k1 {
		if k < minBetween || k > maxBetween {
			t.Fatalf("%d calls between kills, want %d..%d", k, minBetween, maxBetween)
		}
	}
}

// TestSmoke runs every workload briefly with all its correctness checks, so
// that the harness keeps compiling and passing as the program changes.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t0 := time.Now()
		w := sp.make(1, false, nil)
		if r, ok := w.(*rosenRun); ok {
			r.managerIters = 2 * rosenWarmIter
		}
		if err := w.setup(); err != nil {
			t.Fatalf("%s set-up: %v", sp.name, err)
		}
		w.run(150*time.Millisecond, nil)
		if err := verdict(w); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
		pri, alt := w.phases()
		if pri.ops == 0 || alt.ops == 0 || pri.failed+alt.failed != 0 {
			t.Errorf("%s: %d+%d operations, %d+%d failed", sp.name, pri.ops, alt.ops, pri.failed, alt.failed)
		}
		w.close()
		t.Logf("%s: %v", sp.name, time.Since(t0).Round(time.Millisecond))
	}
}

// A check that expects the wrong counter must fail the run.
func TestBrokenExpectationFailsTheRun(t *testing.T) {
	p := &proxyCall{base: newBase(1, false, nil), dim: smallState}
	defer p.close()
	if err := p.setup(); err != nil {
		t.Fatal(err)
	}
	p.ckpt.bump.want++ // expected counter off by one
	p.run(10*time.Millisecond, nil)
	if err := verdict(p); err == nil {
		t.Error("a run whose expected counter is off by one passed its checks")
	}
	if pri, _ := p.phases(); pri.failed == 0 {
		t.Error("the wrong replies were not counted as failed operations")
	}
}

// BENCHMARK.json and the code must declare the same workloads and metrics.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in the code", len(decl.Workloads), len(specs))
	}
	for i, sp := range specs {
		if decl.Workloads[i].Name != sp.name {
			t.Errorf("workload %d declared as %q, code has %q", i, decl.Workloads[i].Name, sp.name)
		}
	}
	same := func(kind string, declared []metric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the code", kind, len(declared), len(defs))
		}
		for i, md := range defs {
			better := "lower"
			if md.higherBetter {
				better = "higher"
			}
			if want := (metric{md.name, md.unit, better, md.bound}); declared[i] != want {
				t.Errorf("%s metric %d declared as %+v, code has %+v", kind, i, declared[i], want)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

func TestEchoCallerChecksReplies(t *testing.T) {
	w := &world{}
	defer w.close()
	cs, err := echoSetup(w, rand.New(rand.NewSource(1)), smallFloats, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs[0].ref.Key = "nobody" // no such servant: the call must fail, not pass silently
	if err := cs[0].call(context.Background()); err == nil {
		t.Error("a call to a missing servant passed")
	}
}
