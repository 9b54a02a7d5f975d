package main

import (
	"fmt"
	"time"
)

// metricDef declares one metric of the report. BENCHMARK.json carries the
// same lists; bench_test.go fails when the two disagree.
type metricDef struct {
	name, unit   string
	higherBetter bool
	bound        float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are measured with tracing off, on every workload. Each workload
// gives `tput`/`p50_us` the meaning of its primary operation and `alt_*`
// that of its paired one; README.md has the table, and the reason p90 is a
// per-layer diagnostic (`bench.p90_us`) and not one of these.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"tput", "1/s", true, 0.25},
	{"p50_us", "us", false, 0.25},
	{"alt_tput", "1/s", true, 0.25},
	{"alt_p50_us", "us", false, 0.25},
}

// perLayer come from the trace pass: layer probes on the workload's input
// sizes, counters read around the workload's own run, and the span recorder.
var perLayer = []metricDef{
	{name: "cdr.encode_ns", unit: "ns"},
	{name: "cdr.decode_ns", unit: "ns"},
	{name: "cdr.allocs_per_roundtrip", unit: "count"},
	{name: "giop.write_ns", unit: "ns"},
	{name: "giop.read_frame_ns", unit: "ns"},
	{name: "giop.allocs_per_frame", unit: "count"},
	{name: "giop.header_bytes_per_msg", unit: "B"},
	{name: "orb.call_serial_ns", unit: "ns"},
	{name: "orb.call_self_ns", unit: "ns"},
	{name: "orb.notify_ns", unit: "ns"},
	{name: "orb.dial_ns", unit: "ns"},
	{name: "orb.allocs_per_call", unit: "count"},
	{name: "orb.alloc_bytes_per_call", unit: "B"},
	{name: "orb.frames_per_read", unit: "ratio", higherBetter: true},
	{name: "orb.client_flush_coalesced_ratio", unit: "ratio", higherBetter: true},
	{name: "orb.server_flush_coalesced_ratio", unit: "ratio", higherBetter: true},
	{name: "orb.conns_dialed", unit: "count"},
	{name: "orb.queue_wait_mean_ns", unit: "ns"},
	{name: "orb.service_mean_ns", unit: "ns"},
	{name: "orb.requests_shed", unit: "count"},
	{name: "orb.admission_shed", unit: "count"},
	{name: "orb.retries", unit: "count"},
	{name: "orb.call_p99_us", unit: "us"},
	{name: "orb.call_p99_9_us", unit: "us"},
	{name: "naming.live_offers_ns", unit: "ns"},
	{name: "naming.bind_unbind_ns", unit: "ns"},
	{name: "naming.resolve_rpc_ns", unit: "ns"},
	{name: "naming.resolves_served", unit: "ratio"},
	{name: "naming.resolves_per_solve", unit: "count"},
	{name: "naming.resolves_per_recovery", unit: "count"},
	{name: "winner.best_of_ns", unit: "ns"},
	{name: "winner.report_ns", unit: "ns"},
	{name: "winner.best_of_rpc_ns", unit: "ns"},
	{name: "winner.report_rpc_ns", unit: "ns"},
	{name: "core.select_ns", unit: "ns"},
	{name: "core.fallbacks", unit: "count"},
	{name: "core.placement_hit_ratio", unit: "ratio", higherBetter: true},
	{name: "ft.proxy_call_ns", unit: "ns"},
	{name: "ft.leg_call_ns", unit: "ns"},
	{name: "ft.leg_fetch_ns", unit: "ns"},
	{name: "ft.leg_put_ns", unit: "ns"},
	{name: "ft.proxy_self_ns", unit: "ns"},
	{name: "ft.recover_call_ns", unit: "ns"},
	{name: "ft.leg_unbind_resolve_ns", unit: "ns"},
	{name: "ft.leg_get_ns", unit: "ns"},
	{name: "ft.leg_restore_ns", unit: "ns"},
	{name: "ft.memstore_put_ns", unit: "ns"},
	{name: "ft.memstore_get_ns", unit: "ns"},
	{name: "ft.compute_delta_ns", unit: "ns"},
	{name: "ft.apply_delta_ns", unit: "ns"},
	{name: "ft.ckpt_bytes_per_call", unit: "B"},
	{name: "ft.allocs_per_proxy_call", unit: "count"},
	{name: "ft.checkpoint_failures", unit: "count"},
	{name: "ft.replays_per_recovery", unit: "ratio"},
	{name: "ft.proxy_p90_us", unit: "us"},
	{name: "ft.proxy_p99_us", unit: "us"},
	{name: "ft.overhead_x", unit: "x"},
	{name: "opt.solve_ns", unit: "ns"},
	{name: "opt.evals_per_solve", unit: "count"},
	{name: "rosen.round_plain_us", unit: "us"},
	{name: "rosen.round_ft_us", unit: "us"},
	{name: "rosen.rounds", unit: "count"},
	{name: "rosen.worker_calls", unit: "count"},
	{name: "obs.observed_call_delta_ns", unit: "ns"},
	{name: "obs.flight_record_ns", unit: "ns"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.p90_us", unit: "us"},
	{name: "bench.alt_p90_us", unit: "us"},
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the trace pass: the layer probes that use this workload's
// inputs, then the workload at one quarter length twice — untraced for the
// reference, then with the span recorder on. It prints every per-layer
// metric (0 for a layer this workload's path does not touch) and the budget
// tables and leaves the spans in out/trace-<workload>.json. End-to-end
// metrics never come from here.
func runTraced(sp spec, seed int64, seconds float64, e map[string]any, h *host) error {
	rec := newRecorder()
	p := &probe{seed: seed, floats: sp.floats, state: sp.state, m: make(map[string]float64), rec: rec}
	switch sp.name {
	case "plain_call":
		p.wire()
	case "proxy_call":
		p.ftCall()
	case "bulk":
		p.wire()
		p.ftCall()
		p.ftStore()
	case "resolve_mix":
		p.namingWinnerCore()
	case "recovery":
		p.ftRecover()
	case "rosen":
		p.optRosen()
	}
	if p.err != nil {
		return fmt.Errorf("%s: layer probe failed: %w", sp.name, p.err)
	}

	w := sp.make(seed, true, h)
	defer w.close()
	if err := w.setup(); err != nil {
		return fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	pri, alt := w.phases()
	before := w.theWorld().totals()
	w.run(quarter, nil)
	untraced := pri.p50us()
	p.m["bench.p90_us"], p.m["bench.alt_p90_us"] = pri.p90us(), alt.p90us()
	if sp.name == "plain_call" || sp.name == "bulk" { // the primary operation is orb.Call
		p.m["orb.call_p99_us"], p.m["orb.call_p99_9_us"] = pri.tailUs(0.99), pri.tailUs(0.999)
	}
	attempted, failed := pri.ops+alt.ops, pri.failed+alt.failed
	*pri, *alt = phase{host: pri.host}, phase{host: alt.host}
	w.run(quarter, rec)
	attempted, failed = attempted+pri.ops+alt.ops, failed+pri.failed+alt.failed
	p.m["bench.trace_overhead_pct"] = 100 * (pri.p50us() - untraced) / untraced
	after := w.theWorld().totals()
	cerr := verdict(w)

	d := after.sub(before)
	p.m["orb.frames_per_read"] = ratio(d.framesRead, d.frameReads)
	p.m["orb.client_flush_coalesced_ratio"] = ratio(d.clientCoalesced, d.sent)
	p.m["orb.server_flush_coalesced_ratio"] = ratio(d.srvCoalesced, d.served)
	p.m["orb.conns_dialed"] = d.dialed
	p.m["orb.queue_wait_mean_ns"] = 1e9 * ratio(d.queueWaitSum, d.queueCnt)
	p.m["orb.service_mean_ns"] = 1e9 * ratio(d.serviceSum, d.serviceCnt)
	p.m["orb.requests_shed"], p.m["orb.admission_shed"], p.m["orb.retries"] = d.shed, d.admShed, d.retries
	if cerr == nil && sp.name != "recovery" && p.m["orb.retries"] != 0 {
		cerr = fmt.Errorf("%v retries on a workload that kills nothing", p.m["orb.retries"])
	}

	p.printBudgets()
	fmt.Printf("# spans: self time = span - interval covered by its children\n")
	for _, lt := range selfTimes(rec.spans) {
		fmt.Printf("#   %-32s n=%-8d mean %10.0f ns  self %10.0f ns\n", lt.Name, lt.Count, lt.TotalNs/float64(lt.Count), lt.SelfNs/float64(lt.Count))
	}

	for k, v := range p.m {
		p.m[k] = finite(v)
	}
	path, werr := rec.write(outDir, sp.name, e, p.m)
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	fmt.Printf("# trace: %d spans in bench/%s\n", len(rec.spans), path)

	return report(sp.name, perLayer, p.m, &result{Attempted: attempted, Failed: failed}, cerr)
}

// selfcheck runs every workload n times in two sets, the second in reverse
// order, and holds the two to the driver's rule: within a set each metric's
// interquartile range stays within its bound (set-up time excepted), and
// the second median is not worse than the first by more than the bound.
func selfcheck(n int, seed int64, seconds float64, h *host) bool {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := range sets {
		order := append([]spec(nil), specs...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, sp := range order {
			for i := 0; i < n; i++ {
				m, res, err := runEndToEnd(sp, seed+int64(set*n+i), seconds, h)
				if err != nil || res.Failed > 0 {
					fmt.Printf("selfcheck: %s failed: %v\n", sp.name, err)
					return false
				}
				for k, v := range m {
					sets[set][key{sp.name, k}] = append(sets[set][key{sp.name, k}], v)
				}
			}
		}
	}
	ok := true
	fmt.Printf("%-12s %-11s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound")
	for _, sp := range specs {
		for _, md := range endToEnd {
			a, b := sets[0][key{sp.name, md.name}], sets[1][key{sp.name, md.name}]
			worse := (median(b) - median(a)) / median(a)
			if md.higherBetter {
				worse = -worse
			}
			verdict := "ok"
			if worse > md.bound || (md.name != "setup_s" && n >= 4 && (spread(a) > md.bound || spread(b) > md.bound)) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-12s %-11s %12.5g %12.5g %7.2f%% %7.2f%% %+7.2f%% %5.0f%% %s\n", sp.name, md.name,
				median(a), median(b), 100*spread(a), 100*spread(b), 100*worse, 100*md.bound, verdict)
		}
	}
	return ok
}
