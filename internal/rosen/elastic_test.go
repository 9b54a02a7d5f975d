package rosen

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ft"
)

// elasticDeploy boots a plain-naming NOW and a membership view the test
// scripts directly (the integration soak feeds it from naming offer lifecycle;
// unit tests drive it by hand for determinism).
func elasticDeploy(t *testing.T, hosts int) (*deployment, *cluster.Membership) {
	t.Helper()
	return deploy(t, hosts, false), cluster.NewMembership()
}

func elasticCfg() Config {
	return Config{
		N: 12, Workers: 3, // Workers is ignored in elastic mode
		WorkerIterations:  40,
		ManagerIterations: 5,
		Seed:              1,
		EvalCost:          1e-4,
	}
}

// TestElasticRunMatchesFixedPoolBitwise is the tentpole's determinism
// claim: a run that grows 3→5 workers and then shrinks 5→4 mid-flight
// converges to exactly the result of a fixed 4-worker run — bitwise.
func TestElasticRunMatchesFixedPoolBitwise(t *testing.T) {
	d, ms := elasticDeploy(t, 8)
	for _, h := range []string{"node01", "node02", "node03"} {
		ms.ReportAlive(h, "test")
	}

	store := ft.NewMemStore()
	cfg := elasticCfg()
	var curSeg int
	grew, shrank := false, false
	cfg.AfterRound = func(round int) {
		if !grew && round >= 2 {
			grew = true
			ms.ReportAlive("node04", "test")
			ms.ReportAlive("node05", "test")
			return
		}
		if grew && !shrank && curSeg >= 2 && round >= 2 {
			shrank = true
			ms.ReportDead("node05", "test")
		}
	}
	m := d.manager(cfg).
		WithFT(FTOptions{Store: store, Policy: ft.Policy{CheckpointEvery: 1}}).
		WithElastic(ElasticOptions{
			Membership: ms,
			MinWorkers: 2,
			OnSegment:  func(seg, w int) { curSeg = seg },
		})
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !grew || !shrank {
		t.Fatalf("script incomplete: grew=%v shrank=%v", grew, shrank)
	}
	es := m.ElasticStats()
	if es.Interrupts < 2 || es.Segments < 3 {
		t.Fatalf("elastic stats: %+v (want ≥2 interrupts over ≥3 segments)", es)
	}
	if es.FinalWorkers != 4 {
		t.Fatalf("final width = %d, want 4", es.FinalWorkers)
	}

	// Baseline: a fresh fixed-pool run at the final width.
	fixed := func() *Result {
		d2 := deploy(t, 8, false)
		cfg2 := elasticCfg()
		cfg2.Workers = 4
		m2 := d2.manager(cfg2).WithFT(FTOptions{
			Store: ft.NewMemStore(), Policy: ft.Policy{CheckpointEvery: 1},
		})
		r, err := m2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()

	if res.F != fixed.F {
		t.Fatalf("F: elastic %v != fixed %v", res.F, fixed.F)
	}
	if res.Rounds != fixed.Rounds {
		t.Fatalf("rounds: elastic %d != fixed %d", res.Rounds, fixed.Rounds)
	}
	if len(res.Boundary) != len(fixed.Boundary) {
		t.Fatalf("boundary dims: %d vs %d", len(res.Boundary), len(fixed.Boundary))
	}
	for i := range res.Boundary {
		if res.Boundary[i] != fixed.Boundary[i] {
			t.Fatalf("boundary[%d]: %v != %v", i, res.Boundary[i], fixed.Boundary[i])
		}
	}
	for i := range res.X {
		if res.X[i] != fixed.X[i] {
			t.Fatalf("x[%d]: %v != %v", i, res.X[i], fixed.X[i])
		}
	}
}

func TestElasticUninterruptedMatchesFixed(t *testing.T) {
	// With stable membership the elastic run is exactly one segment and
	// must equal the fixed run at the same width.
	d, ms := elasticDeploy(t, 6)
	for _, h := range []string{"node01", "node02", "node03"} {
		ms.ReportAlive(h, "test")
	}
	m := d.manager(elasticCfg()).
		WithFT(FTOptions{Store: ft.NewMemStore(), Policy: ft.Policy{CheckpointEvery: 1}}).
		WithElastic(ElasticOptions{Membership: ms})
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	es := m.ElasticStats()
	if es.Segments != 1 || es.Interrupts != 0 || es.FinalWorkers != 3 {
		t.Fatalf("stats: %+v", es)
	}

	d2 := deploy(t, 6, false)
	cfg := elasticCfg()
	cfg.Workers = 3
	fixed, err := d2.manager(cfg).WithFT(FTOptions{
		Store: ft.NewMemStore(), Policy: ft.Policy{CheckpointEvery: 1},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.F != fixed.F || res.Rounds != fixed.Rounds {
		t.Fatalf("elastic %v/%d != fixed %v/%d", res.F, res.Rounds, fixed.F, fixed.Rounds)
	}
}

func TestElasticParksUntilCapacity(t *testing.T) {
	// Membership starts empty; the run parks, then capacity arrives and
	// it completes.
	d, ms := elasticDeploy(t, 6)
	m := d.manager(elasticCfg()).
		WithFT(FTOptions{Store: ft.NewMemStore(), Policy: ft.Policy{CheckpointEvery: 1}}).
		WithElastic(ElasticOptions{Membership: ms, MinWorkers: 2})
	go func() {
		time.Sleep(50 * time.Millisecond)
		ms.ReportAlive("node01", "test")
		ms.ReportAlive("node02", "test")
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := m.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.ElasticStats().FinalWorkers != 2 {
		t.Fatalf("final width = %d", m.ElasticStats().FinalWorkers)
	}
	if res.F < 0 {
		t.Fatalf("F = %v", res.F)
	}
}

func TestElasticRequiresFTAndMembership(t *testing.T) {
	d, ms := elasticDeploy(t, 4)
	if _, err := d.manager(elasticCfg()).
		WithElastic(ElasticOptions{Membership: ms}).
		Run(context.Background()); err == nil {
		t.Fatal("elastic without FT accepted")
	}
	if _, err := d.manager(elasticCfg()).
		WithFT(FTOptions{Store: ft.NewMemStore(), Policy: ft.Policy{CheckpointEvery: 1}}).
		WithElastic(ElasticOptions{}).
		Run(context.Background()); err == nil {
		t.Fatal("elastic without membership accepted")
	}
	cfg := elasticCfg()
	cfg.Replication = 2
	if _, err := d.manager(cfg).
		WithFT(FTOptions{Store: ft.NewMemStore(), Policy: ft.Policy{CheckpointEvery: 1}}).
		WithElastic(ElasticOptions{Membership: ms}).
		Run(context.Background()); err == nil {
		t.Fatal("elastic with replication accepted")
	}
}
