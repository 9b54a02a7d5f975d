package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/winner"
)

// The op mix is the deployed system's traffic, counted, not guessed. Per
// fault-tolerant solve at the paper's size (N=100, 7 workers, 2500 manager
// iterations: 5227 rounds, about 5.8 s on this box at the rosen workload's
// FT round rate with two Ps, when the mix was fixed; 4.9 s and 79 reports
// with one):
//
//	reports   mixHosts node managers x 5.8 s / 2 s (winnerd's default -period)  = 93
//	resolves  one per worker at Place (naming.resolves_per_solve, rosen trace)   =  7
//	churn     each worker's offer is bound at start and unbound at exit          =  7 pairs
//
// and every crash adds one unbind, one resolve and one bind of the
// replacement (naming.resolves_per_recovery, recovery trace), the same one
// resolve per churn pair. So the traffic is report-dominated: 93 : 7 : 7.
// Only the ratio is the deployment's. The rate is not: a closed loop issues
// thousands of times the 16 reports a second that 32 hosts send, so the
// workload prices the operations at that ratio and its operations per second
// are not traffic any deployment sees.
const (
	mixHosts      = 32 // the issue's size, three times the paper's 10-workstation NOW, so that ranking cost, linear in offers, shows
	mixWarm       = 4000
	mixPatterns   = 100 // load patterns the placement check tries
	mixReportPct  = 86
	mixResolvePct = 7 // the rest is bind+unbind churn
)

// mixKind is one operation of the resolve_mix workload.
type mixKind int

const (
	mixResolve mixKind = iota
	mixReport
	mixBind // always followed by the unbind of the same offer
	mixUnbind
)

// mixOp is one generated operation.
type mixOp struct {
	kind        mixKind
	host        int     // report: which host
	speed, runq float64 // report: its new speed and run-queue length
}

// genMixOp draws the next operation of the seeded mix.
func genMixOp(rng *rand.Rand) mixOp {
	switch r := rng.Intn(100); {
	case r < mixReportPct:
		return mixOp{kind: mixReport, host: rng.Intn(mixHosts), speed: 1 + 3*rng.Float64(), runq: 8 * rng.Float64()}
	case r < mixReportPct+mixResolvePct:
		return mixOp{kind: mixResolve}
	default:
		return mixOp{kind: mixBind}
	}
}

// mixCaller is one closed-loop client of the naming and Winner services.
type mixCaller struct {
	rng       *rand.Rand
	churn     orb.ObjectRef // the offer this caller binds and unbinds
	churnHost string
	bound     bool
	resolves  uint64
}

// resolveMix: the deployed `nameserver -winner` shape — a naming servant
// whose selector ranks offers by asking a Winner system manager on another
// ORB — under the deployment's report-dominated mix: load reports and offer
// churn beside the resolves they must not slow, and the other way round.
type resolveMix struct {
	*base
	name    naming.Name
	servant *naming.Servant
	sel     *core.WinnerSelector
	ns      *naming.Client
	win     *winner.Client
	refs    map[orb.ObjectRef]int // bound offer → host index
	byHost  []orb.ObjectRef
	seq     atomic.Uint64
	callers []*mixCaller
}

func hostName(i int) string { return fmt.Sprintf("host%02d", i) }

func (m *resolveMix) setup() error {
	ctx := context.Background()
	_, wad, err := m.serve("winner", true)
	if err != nil {
		return err
	}
	winRef := wad.Activate(winner.DefaultKey, winner.NewServant(winner.NewManager()))

	nsORB, nad, err := m.serve("nameserver", true)
	if err != nil {
		return err
	}
	// core.NewLoadNamingServant builds exactly this; the selector is kept
	// so the report can read its fallback count.
	m.sel = core.NewWinnerSelector(core.ClientRanker{C: winner.NewClient(nsORB, winRef)}, nil)
	m.servant = naming.NewServant(naming.NewRegistry(), m.sel)
	nsRef := nad.Activate(naming.DefaultKey, m.servant)

	cli := m.newORB("client", true)
	m.ns = naming.NewClient(cli, nsRef)
	m.win = winner.NewClient(cli, winRef)
	m.name = naming.NewName("Workers")
	m.refs = make(map[orb.ObjectRef]int, mixHosts)
	for h := 0; h < mixHosts; h++ {
		ref := orb.ObjectRef{TypeID: "IDL:repro/bench/Worker:1.0", Addr: fmt.Sprintf("10.0.0.%d:7000", h+1), Key: "worker"}
		if err := m.ns.BindOffer(ctx, m.name, ref, hostName(h)); err != nil {
			return err
		}
		m.refs[ref] = h
		m.byHost = append(m.byHost, ref)
		if err := m.report(ctx, h, 1+3*m.rng.Float64(), 8*m.rng.Float64(), 1); err != nil {
			return err
		}
	}
	for c := 0; c < 2; c++ {
		m.callers = append(m.callers, &mixCaller{
			rng:       rand.New(rand.NewSource(m.rng.Int63())),
			churn:     orb.ObjectRef{TypeID: "IDL:repro/bench/Worker:1.0", Addr: fmt.Sprintf("10.0.1.%d:7000", c+1), Key: "worker"},
			churnHost: fmt.Sprintf("churn%d", c),
		})
	}
	for k := 0; k < mixWarm; k++ {
		if _, err := m.step(ctx, m.callers[k%2], nil); err != nil {
			return fmt.Errorf("resolve_mix warm-up: %w", err)
		}
	}
	return nil
}

func (m *resolveMix) report(ctx context.Context, host int, speed, runq float64, cpus int32) error {
	return m.win.Report(ctx, winner.LoadSample{
		Host: hostName(host), Speed: speed, RunQueue: runq, CPUs: cpus, Seq: m.seq.Add(1),
	})
}

// step performs the caller's next operation and reports whether it was a
// write (the paired phase).
func (m *resolveMix) step(ctx context.Context, c *mixCaller, tr *recorder) (write bool, err error) {
	op := mixOp{kind: mixUnbind}
	if !c.bound {
		op = genMixOp(c.rng)
	}
	switch op.kind {
	case mixResolve:
		id := tr.start("naming.Client.Resolve", 0, int64(c.resolves))
		ref, err := m.ns.Resolve(ctx, m.name)
		tr.end(id)
		if err != nil {
			return false, err
		}
		c.resolves++
		if _, ok := m.refs[ref]; !ok {
			return false, fmt.Errorf("resolve returned %v, which is not a ranked offer", ref)
		}
		return false, nil
	case mixReport:
		id := tr.start("winner.Client.Report", 0, 0)
		err := m.report(ctx, op.host, op.speed, op.runq, 1)
		tr.end(id)
		return true, err
	case mixBind:
		id := tr.start("naming.Client.BindOffer", 0, 0)
		err := m.ns.BindOffer(ctx, m.name, c.churn, c.churnHost)
		tr.end(id)
		c.bound = err == nil
		return true, err
	default:
		id := tr.start("naming.Client.UnbindOffer", 0, 0)
		err := m.ns.UnbindOffer(ctx, m.name, c.churn)
		tr.end(id)
		c.bound = false
		return true, err
	}
}

func (m *resolveMix) run(d time.Duration, tr *recorder) {
	const block = 20 * time.Millisecond // 1300 operations, 90 of them resolves
	ctx := context.Background()
	m.begin()
	for i := 0; i < int(d/block) || i == 0; i++ {
		pri, alt, dur := m.timedBlock(len(m.callers), block, func(c int) (bool, error) {
			return m.step(ctx, m.callers[c], tr)
		})
		// Both phases share the block, so `tput` counts every operation
		// of the mix and `alt_tput` its writes.
		at := m.around()
		m.alt.add(alt, dur, at)
		m.pri.add(pri, dur, at)
		m.pri.blocks[len(m.pri.blocks)-1].tput += float64(len(alt)) / dur.Seconds()
	}
}

// check stops the churn, then for 100 seeded load patterns reports a fresh
// sample for every host and expects the one resolve that follows to return
// the offer on the host with the highest effective speed.
func (m *resolveMix) check() error {
	ctx := context.Background()
	for _, c := range m.callers {
		if c.bound {
			if _, err := m.step(ctx, c, nil); err != nil {
				return err
			}
		}
	}
	var issued uint64
	for _, c := range m.callers {
		issued += c.resolves
	}
	hits := 0
	for p := 0; p < mixPatterns; p++ {
		best, bestEff := -1, 0.0
		for h := 0; h < mixHosts; h++ {
			s := winner.LoadSample{Speed: 1 + 3*m.rng.Float64(), RunQueue: 8 * m.rng.Float64(), CPUs: int32(1 + m.rng.Intn(4))}
			if err := m.report(ctx, h, s.Speed, s.RunQueue, s.CPUs); err != nil {
				return err
			}
			if eff := s.EffectiveSpeed(); best < 0 || eff > bestEff {
				best, bestEff = h, eff
			}
		}
		ref, err := m.ns.Resolve(ctx, m.name)
		if err != nil {
			return err
		}
		issued++
		if ref == m.byHost[best] {
			hits++
		}
	}
	if hits != mixPatterns {
		return fmt.Errorf("placement: %d of %d load patterns resolved to the best host", hits, mixPatterns)
	}
	if f := m.sel.Fallbacks(); f != 0 {
		return fmt.Errorf("placement: %d resolves fell back from Winner ranking", f)
	}
	if served := m.servant.Resolves(); served != issued {
		return fmt.Errorf("naming servant served %d resolves, clients issued %d", served, issued)
	}
	return nil
}
