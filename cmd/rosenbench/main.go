// Command rosenbench regenerates the paper's evaluation.
//
//	rosenbench -experiment fig3    # Figure 3: load distribution benefit
//	rosenbench -experiment table1  # Table 1: fault-tolerance overhead
//	rosenbench -experiment both    # everything (default)
//
// Figure 3 runs on the simulated 10-workstation NOW in virtual time
// (deterministic); Table 1 measures real wall-clock overhead of
// checkpointing proxies over loopback TCP. Use -quick for a small, fast
// variant of both sweeps, and -json for machine-readable output (the
// experiment name, its parameters, and the virtual/real runtimes) instead
// of the rendered tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// jsonReport is the -json output document: one entry per experiment run,
// each carrying its full parameter set and its raw result rows so the
// numbers can be re-plotted without scraping the rendered tables.
type jsonReport struct {
	Experiment string        `json:"experiment"`
	Quick      bool          `json:"quick"`
	Seed       int64         `json:"seed"`
	Figure3    *fig3Result   `json:"figure3,omitempty"`
	Table1     *table1Result `json:"table1,omitempty"`
}

type fig3Result struct {
	// RuntimeUnit documents the time base: Figure 3 runs in the NOW
	// simulator, so Plain/Winner are virtual seconds.
	RuntimeUnit string                      `json:"runtime_unit"`
	Config      experiments.Figure3Config   `json:"config"`
	Series      []experiments.Figure3Series `json:"series"`
}

type table1Result struct {
	// RuntimeUnit documents the time base: Table 1 measures wall-clock
	// time over loopback TCP, so Plain/Proxy are real seconds.
	RuntimeUnit string                   `json:"runtime_unit"`
	Config      experiments.Table1Config `json:"config"`
	Rows        []experiments.Table1Row  `json:"rows"`
}

func main() {
	experiment := flag.String("experiment", "both", "fig3 | table1 | both")
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	workerIters := flag.Int("worker-iters", 0, "override worker Complex Box iterations (fig3)")
	managerIters := flag.Int("manager-iters", 0, "override manager Complex Box iterations")
	seed := flag.Int64("seed", 1, "random seed")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	trace := flag.Bool("trace", false, "collect RPC traces during table1 and print a latency/trace report")
	flightrec := flag.String("flightrec", "", "with -trace, save the flight-recorder snapshot to this JSON file after table1")
	traceTop := flag.Int("trace-top", 5, "number of slowest traces to print with -trace")
	flag.Parse()

	runFig3 := *experiment == "fig3" || *experiment == "both"
	runTable1 := *experiment == "table1" || *experiment == "both"
	if !runFig3 && !runTable1 {
		log.Fatalf("rosenbench: unknown experiment %q", *experiment)
	}

	report := jsonReport{Experiment: *experiment, Quick: *quick, Seed: *seed}

	var ob *obs.Observer
	if *trace {
		// The observer rides every ORB of the table1 deployment; making
		// its tracer the process default also roots the manager's
		// per-round spans (rosen.round) in the same ring, so each
		// optimization round reads as one trace.
		ob = obs.NewObserver("rosenbench")
		obs.SetDefault(ob.Tracer)
	}

	if runFig3 {
		cfg := experiments.DefaultFigure3Config()
		cfg.Seed = *seed
		if *quick {
			cfg.Cases = []experiments.Figure3Case{
				{N: 30, Workers: 3, WorkerHosts: 5},
			}
			cfg.WorkerIterations = 60
			cfg.ManagerIterations = 5
		}
		if *workerIters > 0 {
			cfg.WorkerIterations = *workerIters
		}
		if *managerIters > 0 {
			cfg.ManagerIterations = *managerIters
		}
		series, err := experiments.RunFigure3(cfg)
		if err != nil {
			log.Fatalf("rosenbench: figure 3: %v", err)
		}
		if *jsonOut {
			report.Figure3 = &fig3Result{RuntimeUnit: "virtual_seconds", Config: cfg, Series: series}
		} else {
			experiments.RenderFigure3(os.Stdout, series)
			fmt.Println()
			experiments.RenderFigure3Chart(os.Stdout, series)
			fmt.Println()
		}
	}

	if runTable1 {
		if runFig3 && !*jsonOut {
			experiments.RenderSeparator(os.Stdout)
			fmt.Println()
		}
		cfg := experiments.DefaultTable1Config()
		cfg.Seed = *seed
		cfg.Observer = ob
		if *quick {
			cfg.N, cfg.Workers = 30, 3
			cfg.Iterations = []int{100, 1000, 5000}
		}
		if *managerIters > 0 {
			cfg.ManagerIterations = *managerIters
		}
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			log.Fatalf("rosenbench: table 1: %v", err)
		}
		if *jsonOut {
			report.Table1 = &table1Result{RuntimeUnit: "real_seconds", Config: cfg, Rows: rows}
		} else {
			experiments.RenderTable1(os.Stdout, rows)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatalf("rosenbench: encode json: %v", err)
		}
	}

	if ob != nil {
		// With -json the report goes to stderr so stdout stays parseable.
		out := io.Writer(os.Stdout)
		if *jsonOut {
			out = os.Stderr
		} else {
			experiments.RenderSeparator(out)
		}
		experiments.RenderTraceReport(out, ob, *traceTop)
		if *flightrec != "" {
			f, err := os.Create(*flightrec)
			if err != nil {
				log.Fatalf("rosenbench: flightrec: %v", err)
			}
			if err := ob.Flight.WriteJSON(f); err != nil {
				log.Fatalf("rosenbench: flightrec: %v", err)
			}
			f.Close()
			log.Printf("rosenbench: flight recorder saved to %s (%d records)", *flightrec, ob.Flight.Len())
		}
	}
}
