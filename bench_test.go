// Package repro's root benchmark harness regenerates every measurement in
// the paper's evaluation (Figure 3 and Table 1) plus ablations over the
// design choices called out in DESIGN.md. Each benchmark prints the
// quantities the paper reports as custom metrics:
//
//	go test -bench=Figure3 -benchtime=1x
//	go test -bench=Table1 -benchtime=1x
//	go test -bench=Ablation -benchtime=1x
//
// Figure 3 runs in deterministic virtual time (metrics are virtual
// seconds); Table 1 measures real wall-clock proxy overhead.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// fig3Bench runs one Figure 3 case across the paper's load sweep and
// reports plain/Winner virtual runtimes and the reduction per load level.
func fig3Bench(b *testing.B, c experiments.Figure3Case, workerIters, managerIters int) {
	cfg := experiments.DefaultFigure3Config()
	cfg.Cases = []experiments.Figure3Case{c}
	cfg.WorkerIterations = workerIters
	cfg.ManagerIterations = managerIters
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFigure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := series[0]
		for _, p := range s.Points {
			b.ReportMetric(p.Plain, fmt.Sprintf("plain_vs@%d", p.Loaded))
			b.ReportMetric(p.Winner, fmt.Sprintf("winner_vs@%d", p.Loaded))
		}
		sum := s.Summarize()
		b.ReportMetric(sum.BestReduction, "best_reduction_%")
		b.ReportMetric(sum.AvgReduction, "avg_reduction_%")
		if !sum.NeverWorse {
			b.Fatalf("winner worse than plain: %+v", s.Points)
		}
	}
}

// BenchmarkFigure3_30x3 regenerates the paper's lower two curves: the
// 30-dimensional Rosenbrock function with 3 workers on 6 workstations.
func BenchmarkFigure3_30x3(b *testing.B) {
	fig3Bench(b, experiments.Figure3Case{N: 30, Workers: 3, WorkerHosts: 5}, 80, 6)
}

// BenchmarkFigure3_100x7 regenerates the paper's upper two curves: the
// 100-dimensional Rosenbrock function with 7 workers on 10 workstations.
func BenchmarkFigure3_100x7(b *testing.B) {
	fig3Bench(b, experiments.Figure3Case{N: 100, Workers: 7, WorkerHosts: 9}, 80, 6)
}

// BenchmarkTable1 regenerates the proxy-overhead table: wall-clock
// runtimes with and without fault-tolerant proxies per worker-iteration
// budget. One sub-benchmark per row.
func BenchmarkTable1(b *testing.B) {
	for _, iters := range []int{100, 1000, 10000, 30000, 50000} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			cfg := experiments.DefaultTable1Config()
			cfg.Iterations = []int{iters}
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunTable1(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(r.Plain, "plain_s")
				b.ReportMetric(r.Proxy, "proxy_s")
				b.ReportMetric(r.OverheadPct(), "overhead_%")
			}
		})
	}
}

// BenchmarkAblationSelectionPolicy compares host-selection policies in
// the naming service under partial load: Winner best-host vs round-robin
// vs random. Reported metric is virtual runtime.
func BenchmarkAblationSelectionPolicy(b *testing.B) {
	for _, policy := range []string{"winner", "roundrobin", "random"} {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := experiments.RunSelectionAblation(policy)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rt, "virtual_s")
			}
		})
	}
}

// BenchmarkAblationMixedCluster runs the workload on a heterogeneous NOW
// of slow uniprocessors and fast SMP machines (Winner's original target
// environment): the Winner-enhanced naming service finds the
// multiprocessors, the plain one walks into the slow machines.
func BenchmarkAblationMixedCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, winner, err := experiments.RunMixedClusterAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain, "plain_vs")
		b.ReportMetric(winner, "winner_vs")
		if winner >= plain {
			b.Fatalf("winner (%v) not faster than plain (%v) on mixed cluster", winner, plain)
		}
	}
}

// BenchmarkAblationReplication contrasts the paper's checkpoint/restart
// fault tolerance (replicas=1) against active replication (replicas=2,3):
// active replicas occupy workstations the parallel application needs, so
// runtime grows — the paper's resource-cost argument as a measurement.
func BenchmarkAblationReplication(b *testing.B) {
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := experiments.RunReplicationAblation(replicas)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rt, "virtual_s")
			}
		})
	}
}

// BenchmarkAblationLatency sweeps the virtual one-way network latency
// from LAN to WAN scale — the paper's future-work direction of CORBA
// metacomputing over wide-area networks.
func BenchmarkAblationLatency(b *testing.B) {
	for _, lat := range []float64{0, 0.001, 0.05, 0.5} {
		b.Run(fmt.Sprintf("latency=%gs", lat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := experiments.RunLatencyAblation(lat)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rt, "virtual_s")
			}
		})
	}
}

// BenchmarkAblationDecomposition varies the worker count for a fixed
// 60-dimensional problem on an unloaded NOW, exposing the parallelism/
// coordination trade-off of the decomposition.
func BenchmarkAblationDecomposition(b *testing.B) {
	for _, workers := range []int{2, 3, 5, 7} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := experiments.RunDecompositionAblation(60, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rt, "virtual_s")
			}
		})
	}
}
