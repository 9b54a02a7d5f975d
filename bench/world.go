package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

// world tracks the ORBs of one deployment. Every deployment lives in this
// one process: client and server ORBs talk over loopback TCP (loopback, not
// a real link).
type world struct {
	// export attaches a metrics registry to the long-lived ORBs (trace pass
	// only), so the reactor's queue-wait and service histograms can be
	// scraped like an operator would.
	export bool
	orbs   []*orb.ORB
	regs   []*obs.Registry
	// retired holds the counts of the ORBs retire has shut down and dropped.
	retired orbTotals
}

// newORB creates an ORB with default options. longLived ORBs get their
// stats exported in the trace pass; the recovery workload's per-cycle
// spares do not.
func (w *world) newORB(name string, longLived bool) *orb.ORB {
	o := orb.New(orb.Options{Name: name})
	w.orbs = append(w.orbs, o)
	if w.export && longLived {
		reg := obs.NewRegistry()
		o.ExportStats(reg)
		w.regs = append(w.regs, reg)
	}
	return o
}

// serve creates an ORB with one adapter on an ephemeral loopback port.
func (w *world) serve(name string, longLived bool) (*orb.ORB, *orb.Adapter, error) {
	o := w.newORB(name, longLived)
	ad, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("adapter for %s: %w", name, err)
	}
	return o, ad, nil
}

// retire shuts one ORB down and forgets it, keeping its counts. The
// recovery workload goes through thousands of servers in a run; a world that
// held on to all of them would grow the heap, and with it the cost of every
// garbage collection, for as long as the run lasts.
func (w *world) retire(o *orb.ORB) {
	o.Shutdown()
	w.retired.count(o)
	for i, have := range w.orbs {
		if have == o {
			w.orbs = append(w.orbs[:i], w.orbs[i+1:]...)
			return
		}
	}
}

func (w *world) close() {
	for i := len(w.orbs) - 1; i >= 0; i-- {
		w.orbs[i].Shutdown()
	}
	w.orbs, w.regs, w.retired = nil, nil, orbTotals{}
}

// orbTotals sums the counters the per-layer report reads over every ORB
// the deployment ever created, retired ones included.
type orbTotals struct {
	sent, clientCoalesced  float64
	served, srvCoalesced   float64
	framesRead, frameReads float64
	dialed, shed, admShed  float64
	retries                float64
	queueWaitSum, queueCnt float64 // seconds, observations
	serviceSum, serviceCnt float64
}

// sub returns what was counted since b was taken.
func (t orbTotals) sub(b orbTotals) orbTotals {
	return orbTotals{
		t.sent - b.sent, t.clientCoalesced - b.clientCoalesced,
		t.served - b.served, t.srvCoalesced - b.srvCoalesced,
		t.framesRead - b.framesRead, t.frameReads - b.frameReads,
		t.dialed - b.dialed, t.shed - b.shed, t.admShed - b.admShed,
		t.retries - b.retries,
		t.queueWaitSum - b.queueWaitSum, t.queueCnt - b.queueCnt,
		t.serviceSum - b.serviceSum, t.serviceCnt - b.serviceCnt,
	}
}

// count adds one ORB's counters to t.
func (t *orbTotals) count(o *orb.ORB) {
	s := o.Stats()
	t.sent += float64(s.RequestsSent)
	t.clientCoalesced += float64(s.FlushesCoalesced)
	t.served += float64(s.RequestsServed)
	t.srvCoalesced += float64(s.ServerFlushesCoalesced)
	t.framesRead += float64(s.FramesRead)
	t.frameReads += float64(s.FrameReads)
	t.dialed += float64(s.ConnectionsDialed)
	t.shed += float64(s.RequestsShed)
	t.admShed += float64(s.AdmissionShed)
	t.retries += float64(s.RetriesAttempted)
}

func (w *world) totals() orbTotals {
	t := w.retired
	for _, o := range w.orbs {
		t.count(o)
	}
	// The reactor's histograms are only reachable the way an operator
	// reaches them: by scraping the registry's text exposition.
	for _, reg := range w.regs {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch family, _, _ := strings.Cut(name, "{"); family {
			case "orb_request_queue_wait_seconds_sum":
				t.queueWaitSum += v
			case "orb_request_queue_wait_seconds_count":
				t.queueCnt += v
			case "orb_request_service_seconds_sum":
				t.serviceSum += v
			case "orb_request_service_seconds_count":
				t.serviceCnt += v
			}
		}
	}
	return t
}

// echoServant returns its float64 sequence argument.
type echoServant struct{}

func (echoServant) TypeID() string { return "IDL:repro/bench/Echo:1.0" }

func (echoServant) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "echo":
		v := in.GetFloat64Seq()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		out.PutFloat64Seq(v)
		return nil
	case "note": // oneway target
		return nil
	}
	return orb.BadOperation(op)
}

// stateServant is a checkpointable counter with a vector of state: bump(i)
// adds one to element i and returns the number of bumps applied so far, so
// a lost or doubled call shows in the very next reply.
type stateServant struct {
	mu  sync.Mutex
	vec []float64
	n   int64
}

func newStateServant(dim int) *stateServant { return &stateServant{vec: make([]float64, dim)} }

func (s *stateServant) TypeID() string { return "IDL:repro/bench/State:1.0" }

func (s *stateServant) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != "bump" {
		return orb.BadOperation(op)
	}
	i := in.GetInt64()
	if err := in.Err(); err != nil {
		return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
	}
	s.mu.Lock()
	s.n++
	s.vec[int(i)%len(s.vec)]++
	v := s.n
	s.mu.Unlock()
	out.PutInt64(v)
	return nil
}

func (s *stateServant) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(16 + 8*len(s.vec))
	e.PutFloat64Seq(s.vec)
	e.PutInt64(s.n)
	return e.Bytes(), nil
}

func (s *stateServant) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	vec := d.GetFloat64Seq()
	n := d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.vec, s.n = vec, n
	s.mu.Unlock()
	return nil
}

// fixedResolver hands out one reference without a naming service, for the
// workloads in which naming is meant to do nothing.
type fixedResolver struct{ ref orb.ObjectRef }

func (r fixedResolver) Resolve(context.Context, naming.Name) (orb.ObjectRef, error) {
	return r.ref, nil
}

// bumper drives bump calls through any call path and checks every reply
// against the expected counter.
type bumper struct {
	rng  *rand.Rand
	dim  int
	want int64
}

// call issues one bump through do and verifies the returned counter.
func (b *bumper) call(do func(args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error) error {
	i := b.rng.Int63n(int64(b.dim))
	var got int64
	err := do(func(e *cdr.Encoder) { e.PutInt64(i) },
		func(d *cdr.Decoder) error { got = d.GetInt64(); return d.Err() })
	if err != nil {
		return err
	}
	b.want++
	if got != b.want {
		return fmt.Errorf("bump returned %d, want %d", got, b.want)
	}
	return nil
}

// echoCaller is one closed-loop caller of the echo servant. It checks the
// reply's length on every call and its contents on every 1024th.
type echoCaller struct {
	cli   *orb.ORB
	ref   orb.ObjectRef
	args  []float64
	calls int
	out   []float64
}

func (c *echoCaller) call(ctx context.Context) error {
	err := c.cli.Call(ctx, c.ref, "echo",
		func(e *cdr.Encoder) { e.PutFloat64Seq(c.args) },
		func(d *cdr.Decoder) error { c.out = d.GetFloat64Seq(); return d.Err() })
	if err != nil {
		return err
	}
	if len(c.out) != len(c.args) {
		return fmt.Errorf("echo returned %d values, want %d", len(c.out), len(c.args))
	}
	if c.calls%1024 == 0 {
		for i, v := range c.args {
			if c.out[i] != v {
				return fmt.Errorf("echo reply differs at %d", i)
			}
		}
	}
	c.calls++
	return nil
}

func randomFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// failures remembers the first error of a run; operations that fail are
// also counted, at +∞ latency, by the phase they belong to.
type failures struct {
	mu    sync.Mutex
	first error
}

func (f *failures) note(err error) {
	f.mu.Lock()
	if f.first == nil {
		f.first = err
	}
	f.mu.Unlock()
}

// timedBlock runs `callers` closed-loop callers for d: each issues its next
// operation only when the previous one has returned. op reports whether the
// operation it performed belongs to the workload's paired phase. It returns
// one latency per attempted operation, by phase, and the block's wall time.
// The slices are scratch space of the base, good until its next block.
func (b *base) timedBlock(callers int, d time.Duration, op func(caller int) (paired bool, err error)) (pri, alt []int64, dur time.Duration) {
	for len(b.scratch) < callers+1 {
		b.scratch = append(b.scratch, [2][]int64{})
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(l *[2][]int64) {
			defer wg.Done()
			l[0], l[1] = l[0][:0], l[1][:0]
			for t0 := time.Now(); t0.Before(deadline); {
				paired, err := op(c)
				t1 := time.Now()
				ns := int64(t1.Sub(t0))
				if err != nil {
					b.fails.note(err)
					ns = failedOp
				}
				if paired {
					l[1] = append(l[1], ns)
				} else {
					l[0] = append(l[0], ns)
				}
				t0 = t1
			}
		}(&b.scratch[c])
	}
	wg.Wait()
	dur = time.Since(start)
	all := &b.scratch[callers]
	all[0], all[1] = all[0][:0], all[1][:0]
	for _, l := range b.scratch[:callers] {
		all[0] = append(all[0], l[0]...)
		all[1] = append(all[1], l[1]...)
	}
	return all[0], all[1], dur
}

// countedBlock runs n operations with one caller.
func countedBlock(n int, fails *failures, op func() error) ([]int64, time.Duration) {
	lat := make([]int64, 0, n)
	start := time.Now()
	t0 := start
	for i := 0; i < n; i++ {
		err := op()
		t1 := time.Now()
		if err != nil {
			fails.note(err)
			lat = append(lat, failedOp)
		} else {
			lat = append(lat, int64(t1.Sub(t0)))
		}
		t0 = t1
	}
	return lat, time.Since(start)
}
