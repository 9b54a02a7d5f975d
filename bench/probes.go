package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/giop"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/orb"
	"repro/internal/winner"
)

// The layer probes time calls into each layer's public functions from
// outside, on inputs of the workload's own sizes. They run only in the
// trace pass and feed the per-layer metrics and the budget tables.

// cost is what one probed operation costs.
type cost struct {
	ns     float64
	allocs float64 // heap allocations per operation, whole process
	bytes  float64 // heap bytes per operation, whole process
}

// costOf runs f n times between two reads of the allocator's counters;
// time is left to the caller.
func costOf(n int, f func()) cost {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return cost{
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}
}

// measure times an operation too short to time alone: five batches of n
// calls, the median of the batches' means.
func measure(n int, f func()) cost {
	f() // settle pools and lazy set-up
	times := make([]float64, 0, 5)
	c := costOf(cap(times), func() {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		times = append(times, float64(time.Since(t0))/float64(n))
	})
	return cost{ns: median(times), allocs: c.allocs / float64(n), bytes: c.bytes / float64(n)}
}

// measureEach times each of n calls on its own and reports the median: for
// operations of a round trip or more, where a stolen time slice would
// otherwise land in a mean.
func measureEach(n int, f func()) cost {
	f()
	times := make([]float64, 0, n)
	c := costOf(n, func() {
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0)))
	})
	c.ns = median(times)
	return c
}

// probe collects per-layer metrics; the first error stops the trace pass.
type probe struct {
	seed   int64
	floats int // payload of the workload's calls, in float64s
	state  int // servant state of the workload's proxies, in float64s
	m      map[string]float64
	rec    *recorder
	err    error
	// budgets are the tables the probes that ran can fill.
	budgets []budget
}

func (p *probe) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// iterations scales a probe's batch size down for bulk inputs.
func (p *probe) iterations(small int) int {
	if p.floats > 1024 {
		return small / 20
	}
	return small
}

// wire measures what one plain call of the workload's payload is made of:
// the cdr and giop legs on their own, the serial call, and what the
// observability hookup adds to it.
func (p *probe) wire() {
	enc, dec := p.cdr()
	wr, rd := p.giop()
	serial := p.orb()
	// One round trip marshals and frames twice: request and reply.
	p.m["orb.call_self_ns"] = serial.ns - 2*(enc.ns+dec.ns+wr.ns+rd.ns)
	p.obsCost(serial.ns)
	p.budgets = append(p.budgets, budget{fmt.Sprintf("plain call, serial, %d B payload", 8*p.floats), serial.ns, serial.allocs, []budgetRow{
		{"cdr: encode + decode, request and reply", 2 * (enc.ns + dec.ns), 2 * (enc.allocs + dec.allocs)},
		{"giop: Write + FrameReader, request and reply", 2 * (wr.ns + rd.ns), 2 * (wr.allocs + rd.allocs)},
	}})
}

func (p *probe) cdr() (enc, dec cost) {
	args := randomFloats(rand.New(rand.NewSource(p.seed)), p.floats)
	var body []byte
	enc = measure(p.iterations(20000), func() {
		e := cdr.AcquireEncoder()
		e.PutFloat64Seq(args)
		body = append(body[:0], e.Bytes()...)
		e.Release()
	})
	var out []float64
	dec = measure(p.iterations(20000), func() {
		d := cdr.AcquireDecoder(body)
		out = d.GetFloat64Seq()
		d.Release()
	})
	if len(out) != len(args) || out[len(out)-1] != args[len(args)-1] {
		p.fail(fmt.Errorf("cdr probe: decoded sequence differs"))
	}
	p.m["cdr.encode_ns"], p.m["cdr.decode_ns"] = enc.ns, dec.ns
	p.m["cdr.allocs_per_roundtrip"] = enc.allocs + dec.allocs
	return enc, dec
}

// loopReader replays a buffer of wire frames forever, so a FrameReader
// sees an endless pipelined stream with no socket in the way.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(b []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(b, r.data[r.off:])
	r.off += n
	return n, nil
}

func (p *probe) giop() (write, read cost) {
	e := cdr.NewEncoder(8 + 8*p.floats)
	e.PutFloat64Seq(randomFloats(rand.New(rand.NewSource(p.seed)), p.floats))
	msg := &giop.Message{Type: giop.MsgRequest, RequestID: 1, ResponseExpected: true,
		ObjectKey: "echo", Operation: "echo", Body: e.Bytes()}
	write = measure(p.iterations(20000), func() { p.fail(giop.Write(io.Discard, msg)) })

	const pipelined = 32
	var wire bytes.Buffer
	for i := 0; i < pipelined; i++ {
		p.fail(giop.Write(&wire, msg))
	}
	p.m["giop.header_bytes_per_msg"] = float64(wire.Len()/pipelined - len(msg.Body))
	fr := giop.NewFrameReader(&loopReader{data: wire.Bytes()}, giop.FrameReaderConfig{})
	defer fr.Close()
	batch := make([]*giop.Message, pipelined)
	var reads, frames float64
	perRead := measure(p.iterations(20000)/pipelined+1, func() {
		n, err := fr.ReadBatch(batch)
		p.fail(err)
		for _, m := range batch[:n] {
			m.Release()
		}
		reads++
		frames += float64(n)
	})
	read = cost{ns: perRead.ns * reads / frames, allocs: perRead.allocs * reads / frames}
	p.m["giop.write_ns"], p.m["giop.read_frame_ns"] = write.ns, read.ns
	p.m["giop.allocs_per_frame"] = write.allocs + read.allocs
	return write, read
}

// orb measures one serial echo call of the workload's payload, a oneway,
// and the first call to a fresh adapter.
func (p *probe) orb() cost {
	ctx := context.Background()
	w := &world{}
	defer w.close()
	callers, err := echoSetup(w, rand.New(rand.NewSource(p.seed)), p.floats, 1, 200)
	if err != nil {
		p.fail(err)
		return cost{}
	}
	c := callers[0]
	serial := measureEach(p.iterations(10000), func() { p.fail(c.call(ctx)) })
	p.m["orb.call_serial_ns"] = serial.ns
	p.m["orb.allocs_per_call"], p.m["orb.alloc_bytes_per_call"] = serial.allocs, serial.bytes

	writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(c.args) }
	notify := measure(p.iterations(500), func() { p.fail(c.cli.Notify(ctx, c.ref, "note", writeArgs)) })
	p.fail(c.call(ctx)) // the reply proves the oneways before it were read
	p.m["orb.notify_ns"] = notify.ns

	var dials []float64
	for i := 0; i < 21; i++ {
		_, ad, err := w.serve("dial-target", false)
		if err != nil {
			p.fail(err)
			break
		}
		fresh := echoCaller{cli: c.cli, ref: ad.Activate("echo", echoServant{}), args: c.args}
		t0 := time.Now()
		p.fail(fresh.call(ctx))
		dials = append(dials, float64(time.Since(t0)))
	}
	p.m["orb.dial_ns"] = median(dials)
	return serial
}

func (p *probe) namingWinnerCore() {
	ctx := context.Background()
	w := &world{}
	defer w.close()
	rng := rand.New(rand.NewSource(p.seed))
	name := naming.NewName("Workers")
	reg := naming.NewRegistry()
	mgr := winner.NewManager()
	hosts := make([]string, mixHosts)
	var seq uint64
	sample := func(h int) winner.LoadSample {
		seq++
		return winner.LoadSample{Host: hosts[h], Speed: 1 + 3*rng.Float64(), RunQueue: 8 * rng.Float64(), CPUs: 1, Seq: seq}
	}
	for h := range hosts {
		hosts[h] = hostName(h)
		ref := orb.ObjectRef{TypeID: "IDL:repro/bench/Worker:1.0", Addr: fmt.Sprintf("10.0.0.%d:7000", h+1), Key: "worker"}
		p.fail(reg.BindOffer(name, naming.Offer{Ref: ref, Host: hosts[h]}))
		mgr.Report(sample(h))
	}
	extra := naming.Offer{Ref: orb.ObjectRef{Addr: "10.0.1.1:7000", Key: "worker"}, Host: "churn"}

	var offers []naming.Offer
	p.m["naming.live_offers_ns"] = measure(5000, func() {
		var err error
		offers, err = reg.LiveOffers(name)
		p.fail(err)
	}).ns
	p.m["naming.bind_unbind_ns"] = measure(5000, func() {
		p.fail(reg.BindOffer(name, extra))
		p.fail(reg.UnbindOffer(name, extra.Ref))
	}).ns
	p.m["winner.best_of_ns"] = measure(5000, func() {
		_, err := mgr.BestOf(hosts)
		p.fail(err)
	}).ns
	p.m["winner.report_ns"] = measure(5000, func() { mgr.Report(sample(rng.Intn(mixHosts))) }).ns

	// core: the selector with an in-process ranker, then its decisions.
	sel := core.NewWinnerSelector(mgr, nil)
	p.m["core.select_ns"] = measure(5000, func() {
		_, err := sel.Select(name, offers)
		p.fail(err)
	}).ns
	hits := 0
	const patterns = 20
	for k := 0; k < patterns; k++ {
		best, bestEff := -1, 0.0
		for h := range hosts {
			s := sample(h)
			mgr.Report(s)
			if eff := s.EffectiveSpeed(); best < 0 || eff > bestEff {
				best, bestEff = h, eff
			}
		}
		if o, err := sel.Select(name, offers); err == nil && o.Host == hosts[best] {
			hits++
		}
	}
	p.m["core.placement_hit_ratio"] = float64(hits) / patterns
	p.m["core.fallbacks"] = float64(sel.Fallbacks())
	if hits != patterns || sel.Fallbacks() != 0 {
		p.fail(fmt.Errorf("core probe: %d of %d patterns placed on the best host, %d fallbacks", hits, patterns, sel.Fallbacks()))
	}

	// The same layers over the ORB: plain naming (FirstSelector, no
	// Winner) and the Winner system manager, each on its own server.
	_, nad, err := w.serve("nameserver", false)
	if err != nil {
		p.fail(err)
		return
	}
	servant := naming.NewServant(reg, nil)
	_, wad, err := w.serve("winner", false)
	if err != nil {
		p.fail(err)
		return
	}
	cli := w.newORB("client", false)
	ns := naming.NewClient(cli, nad.Activate(naming.DefaultKey, servant))
	wc := winner.NewClient(cli, wad.Activate(winner.DefaultKey, winner.NewServant(mgr)))
	before := servant.Resolves()
	const rpcs = 3000
	p.m["naming.resolve_rpc_ns"] = measureEach(rpcs, func() {
		_, err := ns.Resolve(ctx, name)
		p.fail(err)
	}).ns
	p.m["naming.resolves_served"] = float64(servant.Resolves()-before) / (rpcs + 1)
	p.m["winner.best_of_rpc_ns"] = measureEach(rpcs, func() {
		_, err := wc.BestOf(ctx, hosts)
		p.fail(err)
	}).ns
	p.m["winner.report_rpc_ns"] = measureEach(rpcs, func() { p.fail(wc.Report(ctx, sample(rng.Intn(mixHosts)))) }).ns
}

// medianByName is the median duration of the spans of each name.
func medianByName(spans []span) map[string]float64 {
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	out := make(map[string]float64, len(durs))
	for name, d := range durs {
		out[name] = median(d)
	}
	return out
}

// ftCall measures Proxy.Call whole, then unrolls it: the bench itself
// issues the three round trips a checkpointed call is made of, each under
// a child span of one parent, so that what the proxy adds shows as the
// remainder.
func (p *probe) ftCall() {
	ctx := context.Background()
	pc := &proxyCall{base: newBase(p.seed, true, nil), dim: p.state}
	defer pc.close()
	if err := pc.setup(); err != nil {
		p.fail(err)
		return
	}
	whole := measureEach(p.iterations(3000), func() { p.fail(pc.ckpt.call(ctx)) })
	p.m["ft.proxy_call_ns"] = whole.ns
	p.m["ft.allocs_per_proxy_call"] = whole.allocs

	// A short interleaved run gives the tail and the overhead ratio.
	pc.run(500*time.Millisecond, nil)
	p.fail(pc.firstFailure())
	p.fail(pc.check())
	p.m["ft.proxy_p90_us"], p.m["ft.proxy_p99_us"] = pc.pri.tailUs(0.9), pc.pri.tailUs(0.99)
	p.m["ft.overhead_x"] = pc.pri.meanNano() / pc.alt.meanNano()
	st := pc.ckpt.proxy.Stats()
	p.m["ft.ckpt_bytes_per_call"] = float64(st.CheckpointBytes) / float64(st.Checkpoints)
	p.m["ft.checkpoint_failures"] = float64(st.CheckpointFailures)
	if st.CheckpointFailures != 0 {
		p.fail(fmt.Errorf("ft probe: %d checkpoint failures", st.CheckpointFailures))
	}

	// Unrolled, against the same servant and store. The bench's own
	// checkpoints go under another key, so the proxy's epochs stay valid.
	x := pc.ckpt
	first := len(p.rec.spans)
	for k := 0; k < p.iterations(2000); k++ {
		parent := p.rec.start("proxied_call/unrolled", 0, int64(k))
		p.fail(x.bump.call(func(args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error {
			id := p.rec.start("orb.Call(bump)", parent, int64(k))
			defer p.rec.end(id)
			return x.cli.Call(ctx, x.ref, "bump", args, reply)
		}))
		id := p.rec.start("ft.FetchCheckpoint", parent, int64(k))
		data, err := ft.FetchCheckpoint(ctx, x.cli, x.ref)
		p.rec.end(id)
		p.fail(err)
		id = p.rec.start("ft.StoreClient.Put", parent, int64(k))
		p.fail(x.store.Put(ctx, "unrolled", ft.Full(uint64(k+1), data)))
		p.rec.end(id)
		p.rec.end(parent)
	}
	if cp, err := x.store.Get(ctx, "unrolled"); err != nil {
		p.fail(err)
	} else if live, _ := x.servant.Checkpoint(); !bytes.Equal(cp.Data, live) {
		p.fail(fmt.Errorf("unrolled proxied call: the stored checkpoint is not the servant's state"))
	}
	legs := medianByName(p.rec.spans[first:])
	p.m["ft.leg_call_ns"] = legs["orb.Call(bump)"]
	p.m["ft.leg_fetch_ns"] = legs["ft.FetchCheckpoint"]
	p.m["ft.leg_put_ns"] = legs["ft.StoreClient.Put"]
	p.m["ft.proxy_self_ns"] = whole.ns - legs["orb.Call(bump)"] - legs["ft.FetchCheckpoint"] - legs["ft.StoreClient.Put"]
	na := math.NaN()
	p.budgets = append(p.budgets, budget{fmt.Sprintf("proxied call, checkpoint every call, %d B state", 8*p.state+16), whole.ns, whole.allocs, []budgetRow{
		{"orb.Call(bump)", legs["orb.Call(bump)"], na},
		{"ft.FetchCheckpoint", legs["ft.FetchCheckpoint"], na},
		{"ft.StoreClient.Put", legs["ft.StoreClient.Put"], na},
	}})
}

// ftRecover measures a crash recovery whole (the call after a kill), then
// unrolls its read path: unbind + resolve, Store.Get, PushRestore into a
// server the client has never dialled.
func (p *probe) ftRecover() {
	ctx := context.Background()
	r := &recovery{base: newBase(p.seed, true, nil)}
	defer r.close()
	if err := r.setup(); err != nil {
		p.fail(err)
		return
	}
	// The steady proxied call of this deployment is a recovery's last leg.
	steady := measureEach(2000, func() { p.fail(r.call(ctx)) })
	p.m["ft.proxy_call_ns"] = steady.ns
	resolved := r.nsServant.Resolves()
	lat, _ := r.killBlock(ctx, recoveryBlock, &r.fails, nil)
	p.m["naming.resolves_per_recovery"] = float64(r.nsServant.Resolves()-resolved) / recoveryBlock
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	whole := percentile(lat, 0.5)
	p.m["ft.recover_call_ns"] = whole
	p.fail(r.firstFailure())
	p.fail(r.check())
	st := r.proxy.Stats()
	p.m["ft.replays_per_recovery"] = float64(st.Replays) / float64(st.Recoveries)
	if st.Replays != st.Recoveries {
		p.fail(fmt.Errorf("ft probe: %d replays for %d recoveries", st.Replays, st.Recoveries))
	}

	first := len(p.rec.spans)
	for k := 0; k < recoveryBlock; k++ {
		spare, err := r.spawn(ctx, true)
		if err != nil {
			p.fail(err)
			return
		}
		r.retire(r.serving.orb)
		parent := p.rec.start("recovery/unrolled", 0, int64(k))
		id := p.rec.start("naming.UnbindOffer+Resolve", parent, int64(k))
		p.fail(r.ns.UnbindOffer(ctx, r.name, r.serving.ref))
		fresh, err := r.ns.Resolve(ctx, r.name)
		p.rec.end(id)
		if err != nil || fresh != spare.ref {
			p.fail(fmt.Errorf("unrolled recovery resolved %v (%v), want the spare", fresh, err))
			return
		}
		id = p.rec.start("ft.StoreClient.Get", parent, int64(k))
		cp, err := r.store.Get(ctx, r.name.String())
		p.rec.end(id)
		p.fail(err)
		id = p.rec.start("ft.PushRestore", parent, int64(k))
		p.fail(ft.PushRestore(ctx, r.cli, fresh, cp.Data))
		p.rec.end(id)
		p.rec.end(parent)
		r.serving = spare
	}
	legs := medianByName(p.rec.spans[first:])
	p.m["ft.leg_unbind_resolve_ns"] = legs["naming.UnbindOffer+Resolve"]
	p.m["ft.leg_get_ns"] = legs["ft.StoreClient.Get"]
	p.m["ft.leg_restore_ns"] = legs["ft.PushRestore"]
	na := math.NaN()
	p.budgets = append(p.budgets, budget{"recovery: the first call after a kill", whole, na, []budgetRow{
		{"naming UnbindOffer + Resolve", legs["naming.UnbindOffer+Resolve"], na},
		{"ft.StoreClient.Get", legs["ft.StoreClient.Get"], na},
		{"ft.PushRestore (fresh connection)", legs["ft.PushRestore"], na},
		{"replayed call and its checkpoint", steady.ns, na},
	}})
}

// ftStore measures the checkpoint store and the delta codec in process, on
// a 64 KiB state with one element changed between checkpoints.
func (p *probe) ftStore() {
	ctx := context.Background()
	s := newStateServant(bulkFloats)
	base, _ := s.Checkpoint()
	s.vec[bulkFloats/2]++
	next, _ := s.Checkpoint()
	ms := ft.NewMemStore()
	epoch := uint64(0)
	p.m["ft.memstore_put_ns"] = measure(1000, func() {
		epoch++
		p.fail(ms.Put(ctx, "k", ft.Full(epoch, next)))
	}).ns
	p.m["ft.memstore_get_ns"] = measure(1000, func() {
		_, err := ms.Get(ctx, "k")
		p.fail(err)
	}).ns
	var delta []byte
	p.m["ft.compute_delta_ns"] = measure(1000, func() { delta = ft.ComputeDelta(base, next) }).ns
	p.m["ft.apply_delta_ns"] = measure(1000, func() {
		out, err := ft.ApplyDelta(base, delta)
		if err == nil && !bytes.Equal(out, next) {
			err = fmt.Errorf("delta probe: applied delta differs from the new state")
		}
		p.fail(err)
	}).ns
}

// optRosen measures one worker solve in process and one short distributed
// run with plain stubs and with FT proxies.
func (p *probe) optRosen() {
	d, err := opt.NewDecomposition(rosenN, rosenWorkers)
	if err != nil {
		p.fail(err)
		return
	}
	global := opt.UniformBounds(rosenN, -2.048, 2.048)
	obj, err := d.SubproblemObjective(0, make([]float64, d.ManagerDim()))
	p.fail(err)
	bounds, err := d.SubproblemBounds(0, global)
	p.fail(err)
	if p.err != nil {
		return
	}
	var evals int
	p.m["opt.solve_ns"] = measure(200, func() {
		res, err := opt.MinimizeComplexBox(obj, bounds, opt.ComplexBoxOptions{MaxIterations: rosenWorkerIters, Seed: p.seed})
		p.fail(err)
		evals = res.Evaluations
	}).ns
	p.m["opt.evals_per_solve"] = float64(evals)

	r := &rosenRun{base: newBase(p.seed, false, nil), managerIters: rosenManagerIter}
	defer r.close()
	for _, withFT := range []bool{false, true} {
		rounds, wall, calls, err := r.solve(2*rosenWarmIter, withFT, nil, nil)
		if err != nil {
			p.fail(err)
			return
		}
		p.m["rosen.worker_calls"] = float64(calls)
		p.m["naming.resolves_per_solve"] = float64(r.resolves)
		var ph phase
		ph.add(rounds, wall, 0)
		if withFT {
			p.m["rosen.round_ft_us"] = ph.p50us()
		} else {
			p.m["rosen.round_plain_us"] = ph.p50us()
			p.m["rosen.rounds"] = float64(len(rounds))
		}
	}
}

// obsCost measures what the observability hookup adds to a serial call and
// what one flight-recorder entry costs.
func (p *probe) obsCost(plainSerial float64) {
	ctx := context.Background()
	w := &world{}
	defer w.close()
	callers, err := echoSetup(w, rand.New(rand.NewSource(p.seed)), p.floats, 1, 0)
	if err != nil {
		p.fail(err)
		return
	}
	for _, o := range w.orbs {
		_, ln, err := o.Observe("bench", "127.0.0.1:0")
		if err != nil {
			p.fail(err)
			return
		}
		defer ln.Close()
	}
	observed := measureEach(p.iterations(10000), func() { p.fail(callers[0].call(ctx)) })
	p.m["obs.observed_call_delta_ns"] = observed.ns - plainSerial

	fr := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
	rec := obs.FlightRecord{Op: "echo", Peer: "127.0.0.1:1", Side: obs.SideServer, Bytes: 128, Service: 1000}
	p.m["obs.flight_record_ns"] = measure(20000, func() { fr.Record(rec) }).ns
}

// budget is one table: a whole measured on its own and the legs it is made
// of, each measured on its own.
type budget struct {
	title               string
	wholeNs, wholeAlloc float64
	legs                []budgetRow
}

// budgetRow is one line of a budget table; allocs is NaN where the leg's
// allocations were not measured on their own.
type budgetRow struct {
	what       string
	ns, allocs float64
}

// printBudgets prints, for each table, the legs, the remainder they leave
// unexplained and the whole, so the rows always add up to what was measured.
func (p *probe) printBudgets() {
	row := func(what string, ns, allocs float64) {
		a := "-"
		if !math.IsNaN(allocs) {
			a = fmt.Sprintf("%.1f", allocs)
		}
		fmt.Printf("#   %-46s %10.0f ns %8s allocs\n", what, ns, a)
	}
	for _, b := range p.budgets {
		fmt.Printf("# budget: %s\n", b.title)
		var ns, allocs float64
		for _, l := range b.legs {
			row(l.what, l.ns, l.allocs)
			ns += l.ns
			allocs += l.allocs
		}
		row("remainder, not explained by the legs", b.wholeNs-ns, b.wholeAlloc-allocs)
		row("= measured whole", b.wholeNs, b.wholeAlloc)
	}
}
