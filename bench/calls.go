package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cdr"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/orb"
)

// Sizes of the call workloads. Warm-up is a fixed operation count, not a
// time, so that set-up does the same work on every run.
const (
	smallFloats = 16   // 128 B: the smallest useful message
	bulkFloats  = 8192 // 64 KiB
	smallState  = 64   // 528 B checkpoint
	warmEcho    = 8000 // per caller; about 0.2 s of set-up, so set-up time is work, not start-up noise
	warmCalls   = 2000 // through each proxy
	warmBulk    = 200
	proxyBlock  = 500 // calls per proxy_call block, checkpointed and not: 20 and 6 ms
)

// base is what every workload shares.
type base struct {
	world
	seed  int64
	rng   *rand.Rand
	fails failures
	pri   phase // the workload's primary operation
	alt   phase // the operation it is paired with
	// scratch holds timedBlock's latency buffers, by caller and phase, so
	// that the harness adds next to no garbage to the heap it measures.
	scratch [][2][]int64
	// host is the process's, or the base's own when it was made without one.
	host    *host
	ownHost bool
	// A run measures from began, not counting what it had waited for a
	// quiet host by then or waits afterwards.
	began       time.Time
	waitedBegan time.Duration
}

// newBase makes the part every workload shares; a nil host gives the base
// one of its own, which close() closes.
func newBase(seed int64, trace bool, h *host) *base {
	b := &base{seed: seed, rng: rand.New(rand.NewSource(seed)), host: h, ownHost: h == nil}
	if h == nil {
		b.host = &host{}
	}
	b.export = trace
	b.pri.keepAll, b.alt.keepAll = trace, trace
	b.pri.host, b.alt.host = b.host, b.host
	return b
}

func (b *base) close() {
	b.world.close()
	if b.ownHost {
		b.host.close()
	}
}

// around reads the canary after a block, waiting if the host reads slow
// (host.await); a run calls it once before its first block. A canary that
// cannot be read fails the run.
func (b *base) around() int {
	at, err := b.host.await()
	if err != nil {
		b.fails.note(err)
	}
	return at
}

// begin starts a run's clock and measured reads it: the time since, less
// the time spent waiting for a quiet host.
func (b *base) begin() {
	b.around()
	b.began, b.waitedBegan = time.Now(), b.host.waited
}

func (b *base) measured() time.Duration {
	return time.Since(b.began) - (b.host.waited - b.waitedBegan)
}

func (b *base) phases() (*phase, *phase) { return &b.pri, &b.alt }
func (b *base) firstFailure() error      { return b.fails.first }
func (b *base) theWorld() *world         { return &b.world }

// echoSetup starts an echo server on its own ORB and returns `callers`
// callers sharing one client ORB (one pooled connection), warmed up with n
// calls each.
func echoSetup(w *world, rng *rand.Rand, floats, callers, warm int) ([]*echoCaller, error) {
	_, ad, err := w.serve("echo-srv", true)
	if err != nil {
		return nil, err
	}
	ref := ad.Activate("echo", echoServant{})
	cli := w.newORB("echo-cli", true)
	cs := make([]*echoCaller, callers)
	for i := range cs {
		cs[i] = &echoCaller{cli: cli, ref: ref, args: randomFloats(rng, floats)}
		for k := 0; k < warm; k++ {
			if err := cs[i].call(context.Background()); err != nil {
				return nil, fmt.Errorf("echo warm-up: %w", err)
			}
		}
	}
	return cs, nil
}

// proxied is one servant behind one ft.Proxy, with the checkpoint store
// served from an ORB of its own.
type proxied struct {
	servant *stateServant
	ref     orb.ObjectRef
	cli     *orb.ORB
	proxy   *ft.Proxy
	store   *ft.StoreClient
	bump    bumper
	name    naming.Name
}

// proxySetup wires servant → proxy → store over loopback and warms the
// path with n calls. every is the proxy's CheckpointEvery.
func proxySetup(w *world, rng *rand.Rand, key string, dim, every, warm int) (*proxied, error) {
	_, sad, err := w.serve(key+"-srv", true)
	if err != nil {
		return nil, err
	}
	_, stad, err := w.serve(key+"-store", true)
	if err != nil {
		return nil, err
	}
	p := &proxied{
		servant: newStateServant(dim),
		cli:     w.newORB(key+"-cli", true),
		bump:    bumper{rng: rand.New(rand.NewSource(rng.Int63())), dim: dim},
		name:    naming.NewName(key),
	}
	p.ref = sad.Activate("state", ft.Wrap(p.servant))
	storeRef := stad.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))
	p.store = ft.NewStoreClient(p.cli, storeRef)
	p.proxy, err = ft.NewProxy(context.Background(), p.cli, p.name, fixedResolver{p.ref}, p.store,
		ft.Policy{CheckpointEvery: every})
	if err != nil {
		return nil, err
	}
	for k := 0; k < warm; k++ {
		if err := p.call(context.Background()); err != nil {
			return nil, fmt.Errorf("proxy warm-up: %w", err)
		}
	}
	return p, nil
}

// call is one checked bump through the proxy.
func (p *proxied) call(ctx context.Context) error {
	return p.bump.call(func(args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error {
		return p.proxy.Call(ctx, "bump", args, reply)
	})
}

// checkStore verifies that the store's newest epoch equals the number of
// checkpoints taken and that it decodes to exactly the servant's state.
func (p *proxied) checkStore() error {
	st := p.proxy.Stats()
	if st.CheckpointFailures != 0 {
		return fmt.Errorf("%d checkpoint failures", st.CheckpointFailures)
	}
	if st.Checkpoints != uint64(p.bump.want) {
		return fmt.Errorf("%d checkpoints for %d calls", st.Checkpoints, p.bump.want)
	}
	cp, err := p.store.Get(context.Background(), p.name.String())
	if err != nil {
		return fmt.Errorf("reading back checkpoint: %w", err)
	}
	if cp.Epoch != st.Checkpoints {
		return fmt.Errorf("store epoch %d, want %d", cp.Epoch, st.Checkpoints)
	}
	live, _ := p.servant.Checkpoint()
	if !bytes.Equal(cp.Data, live) {
		return fmt.Errorf("stored checkpoint differs from the servant's state")
	}
	return nil
}

// plainCall: two callers echo 128 B against one reactor server.
type plainCall struct {
	*base
	callers []*echoCaller
}

func (p *plainCall) setup() (err error) {
	p.callers, err = echoSetup(&p.world, p.rng, smallFloats, 2, warmEcho)
	return err
}

func (p *plainCall) run(d time.Duration, tr *recorder) {
	const block, serial = 20 * time.Millisecond, 10 * time.Millisecond
	echoBlocks(p.base, p.callers, int(d/(block+serial)), block, tr, func() {
		// The paired operation is the same call with one caller: what a
		// lone manager sees, and what a batching change must not slow.
		_, lat, dur := p.timedBlock(1, serial, func(int) (bool, error) {
			id := tr.start("orb.Call/serial", 0, 0)
			err := p.callers[0].call(context.Background())
			tr.end(id)
			return true, err
		})
		p.alt.add(lat, dur, p.around())
	})
}

func (p *plainCall) check() error { return nil } // every echo reply was checked as it arrived

// echoBlocks alternates two-caller echo blocks with the workload's paired
// block. Blocks are never cut short, so every block has the same weight.
func echoBlocks(b *base, callers []*echoCaller, pairs int, block time.Duration, tr *recorder, paired func()) {
	ctx := context.Background()
	b.begin()
	for i := 0; i < pairs || i == 0; i++ {
		lat, _, dur := b.timedBlock(len(callers), block, func(c int) (bool, error) {
			id := tr.start("orb.Call", 0, int64(c))
			err := callers[c].call(ctx)
			tr.end(id)
			return false, err
		})
		b.pri.add(lat, dur, b.around())
		paired()
	}
}

// proxyCall: the paper's Table 1 path, one caller, checkpoint after every
// call, interleaved with the same call through a proxy that never
// checkpoints.
type proxyCall struct {
	*base
	dim         int // servant state, in float64s
	ckpt, plain *proxied
}

func (p *proxyCall) setup() (err error) {
	if p.ckpt, err = proxySetup(&p.world, p.rng, "ckpt", p.dim, 1, warmCalls); err != nil {
		return err
	}
	p.plain, err = proxySetup(&p.world, p.rng, "twin", p.dim, 0, warmCalls)
	return err
}

func (p *proxyCall) run(d time.Duration, tr *recorder) {
	ctx := context.Background()
	traced := func(name string, px *proxied) func() error {
		return func() error {
			id := tr.start(name, 0, px.bump.want)
			err := px.call(ctx)
			tr.end(id)
			return err
		}
	}
	for p.begin(); p.measured() < d; {
		lat, dur := countedBlock(proxyBlock, &p.fails, traced("ft.Proxy.Call", p.ckpt))
		p.pri.add(lat, dur, p.around())
		lat, dur = countedBlock(proxyBlock, &p.fails, traced("ft.Proxy.Call/nockpt", p.plain))
		p.alt.add(lat, dur, p.around())
	}
}

func (p *proxyCall) check() error {
	if st := p.plain.proxy.Stats(); st.Checkpoints != 0 {
		return fmt.Errorf("baseline proxy stored %d checkpoints", st.Checkpoints)
	}
	return p.ckpt.checkStore()
}

// bulk: the same two layers with 64 KiB payloads and 64 KiB state.
type bulk struct {
	*base
	callers []*echoCaller
	ckpt    *proxied
}

func (b *bulk) setup() (err error) {
	if b.callers, err = echoSetup(&b.world, b.rng, bulkFloats, 2, warmBulk); err != nil {
		return err
	}
	b.ckpt, err = proxySetup(&b.world, b.rng, "bulk", bulkFloats, 1, warmBulk)
	return err
}

func (b *bulk) run(d time.Duration, tr *recorder) {
	const block = 20 * time.Millisecond // 40 echoes, 55 proxied calls
	echoBlocks(b.base, b.callers, int(d/(2*block)), block, tr, func() {
		_, lat, dur := b.timedBlock(1, block, func(int) (bool, error) {
			id := tr.start("ft.Proxy.Call", 0, b.ckpt.bump.want)
			err := b.ckpt.call(context.Background())
			tr.end(id)
			return true, err
		})
		b.alt.add(lat, dur, b.around())
	})
}

func (b *bulk) check() error { return b.ckpt.checkStore() }
