package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/orb"
)

const (
	recoveryBlock = 100 // migrations per block, 10 ms; cycles and migrations per probe
	killCycles    = 30  // kill-and-recover cycles per block, 35 ms
	recoveryWarm  = 200 // proxied calls
	warmCycles    = 40  // kill-and-recover cycles and migrations in warm-up
	minBetween    = 5   // proxied calls between kills: seeded in [5, 35]
	maxBetween    = 35
)

// server is one process-like unit hosting the stateful servant.
type server struct {
	orb     *orb.ORB
	ref     orb.ObjectRef
	servant *stateServant
}

// recovery: a proxied, checkpointed service whose server is killed over and
// over; the timed operation is the first call after each kill. The paired
// operation is the planned version of the same hand-over, Proxy.Migrate.
type recovery struct {
	*base
	name  naming.Name
	cli   *orb.ORB
	ns    *naming.Client
	store *ft.StoreClient
	proxy *ft.Proxy
	bump  bumper
	// nsServant counts the resolves a recovery issues, for the trace pass.
	nsServant *naming.Servant
	serving   *server
	spawned   int
	cycles    uint64 // kill-and-recover cycles performed, warm-up included
	moves     uint64 // migrations performed
}

func (r *recovery) setup() error {
	ctx := context.Background()
	_, ad, err := r.serve("services", true)
	if err != nil {
		return err
	}
	r.nsServant = naming.NewServant(naming.NewRegistry(), nil)
	nsRef := ad.Activate(naming.DefaultKey, r.nsServant)
	storeRef := ad.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))
	r.cli = r.newORB("client", true)
	r.ns = naming.NewClient(r.cli, nsRef)
	r.store = ft.NewStoreClient(r.cli, storeRef)
	r.name = naming.NewName("Counter")
	r.bump = bumper{rng: r.rng, dim: smallState}

	if r.serving, err = r.spawn(ctx, true); err != nil {
		return err
	}
	r.proxy, err = ft.NewProxy(ctx, r.cli, r.name, r.ns, r.store,
		ft.Policy{CheckpointEvery: 1}, ft.WithUnbinder(r.ns))
	if err != nil {
		return err
	}
	for k := 0; k < recoveryWarm; k++ {
		if err := r.call(ctx); err != nil {
			return fmt.Errorf("recovery warm-up: %w", err)
		}
	}
	var fails failures
	r.killBlock(ctx, warmCycles, &fails, nil)
	r.migrateBlock(ctx, warmCycles, &fails, nil)
	return fails.first
}

// spawn starts a fresh server with an empty servant; offered servers are
// bound under the service name so a resolve can find them.
func (r *recovery) spawn(ctx context.Context, offer bool) (*server, error) {
	r.spawned++
	o, ad, err := r.serve(fmt.Sprintf("server%d", r.spawned), false)
	if err != nil {
		return nil, err
	}
	s := &server{orb: o, servant: newStateServant(smallState)}
	s.ref = ad.Activate("state", ft.Wrap(s.servant))
	if offer {
		if err := r.ns.BindOffer(ctx, r.name, s.ref, fmt.Sprintf("host%d", r.spawned)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (r *recovery) call(ctx context.Context) error {
	return r.bump.call(func(args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error {
		return r.proxy.Call(ctx, "bump", args, reply)
	})
}

// betweenKills draws how many proxied calls precede the next kill.
func betweenKills(b *bumper) int { return minBetween + b.rng.Intn(maxBetween-minBetween+1) }

// killBlock runs n cycles of {offer a spare, a seeded number of proxied
// calls, shut the serving ORB down, call again}. Only that last call is
// timed: COMM_FAILURE, unbind, resolve, Store.Get, restore, replay and
// checkpoint, on a freshly dialled connection.
func (r *recovery) killBlock(ctx context.Context, n int, fails *failures, tr *recorder) ([]int64, time.Duration) {
	lat := make([]int64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		cycle := tr.start("recovery.cycle", 0, int64(r.cycles))
		id := tr.start("spawn+BindOffer", cycle, int64(r.cycles))
		spare, err := r.spawn(ctx, true)
		tr.end(id)
		if err != nil {
			fails.note(err)
			lat = append(lat, failedOp)
			break
		}
		id = tr.start("ft.Proxy.Call/steady", cycle, int64(r.cycles))
		for k := betweenKills(&r.bump); k > 0 && err == nil; k-- {
			err = r.call(ctx)
		}
		tr.end(id)
		id = tr.start("orb.ORB.Shutdown", cycle, int64(r.cycles))
		r.retire(r.serving.orb)
		tr.end(id)
		r.serving = spare
		r.cycles++

		id = tr.start("ft.Proxy.Call/recover", cycle, int64(r.cycles))
		t0 := time.Now()
		if err == nil {
			err = r.call(ctx)
		}
		ns := int64(time.Since(t0))
		tr.end(id)
		tr.end(cycle)
		if err != nil {
			fails.note(err)
			ns = failedOp
		}
		lat = append(lat, ns)
	}
	return lat, time.Since(start)
}

// migrateBlock hands the service back and forth n times (n even) between
// the serving server and a live spare that is not on offer, so the block
// ends where it began. Only Proxy.Migrate is timed; the call after each
// hand-over proves the state arrived.
func (r *recovery) migrateBlock(ctx context.Context, n int, fails *failures, tr *recorder) ([]int64, time.Duration) {
	lat := make([]int64, 0, n)
	start := time.Now()
	spare, err := r.spawn(ctx, false)
	if err != nil {
		fails.note(err)
		return append(lat, failedOp), time.Since(start)
	}
	from, to := r.serving, spare
	for i := 0; i < n; i++ {
		id := tr.start("ft.Proxy.Migrate", 0, int64(r.moves))
		t0 := time.Now()
		err := r.proxy.Migrate(ctx, to.ref)
		ns := int64(time.Since(t0))
		tr.end(id)
		if err == nil {
			err = r.call(ctx)
		}
		if err != nil {
			fails.note(err)
			ns = failedOp
		}
		lat = append(lat, ns)
		r.moves++
		from, to = to, from
	}
	r.retire(spare.orb)
	return lat, time.Since(start)
}

func (r *recovery) run(d time.Duration, tr *recorder) {
	ctx := context.Background()
	for r.begin(); r.measured() < d; {
		lat, dur := r.killBlock(ctx, killCycles, &r.fails, tr)
		r.pri.add(lat, dur, r.around())
		lat, dur = r.migrateBlock(ctx, recoveryBlock, &r.fails, tr)
		r.alt.add(lat, dur, r.around())
	}
}

// check: every bump already returned exactly the expected counter, so no
// call was lost or applied twice. Here: one recovery and one replay per
// kill (migrations add none), one checkpoint per call and per migration,
// and the store's newest epoch decodes to the serving servant's state.
func (r *recovery) check() error {
	st := r.proxy.Stats()
	if st.Recoveries != r.cycles || st.Replays != r.cycles {
		return fmt.Errorf("%d recoveries and %d replays for %d kills", st.Recoveries, st.Replays, r.cycles)
	}
	if st.CheckpointFailures != 0 {
		return fmt.Errorf("%d checkpoint failures", st.CheckpointFailures)
	}
	if st.Calls != uint64(r.bump.want) || st.Checkpoints != st.Calls+r.moves {
		return fmt.Errorf("%d calls (want %d), %d checkpoints (want calls + %d migrations)",
			st.Calls, r.bump.want, st.Checkpoints, r.moves)
	}
	cp, err := r.store.Get(context.Background(), r.name.String())
	if err != nil {
		return fmt.Errorf("reading back checkpoint: %w", err)
	}
	live, _ := r.serving.servant.Checkpoint()
	if cp.Epoch != st.Checkpoints || !bytes.Equal(cp.Data, live) {
		return fmt.Errorf("store holds epoch %d (want %d) or not the serving servant's state", cp.Epoch, st.Checkpoints)
	}
	return nil
}
