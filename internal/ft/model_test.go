package ft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

// modelState is a benchState that remembers every state it had — each
// capture and each restore — so that the model can tell a stored state the
// servant had from one it never had.
type modelState struct {
	*benchState
	mu  sync.Mutex
	had map[string]bool
}

func (s *modelState) note(b []byte) {
	s.mu.Lock()
	s.had[string(b)] = true
	s.mu.Unlock()
}

func (s *modelState) hadState(b []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.had[string(b)]
}

func (s *modelState) Checkpoint() ([]byte, error) {
	data, err := s.benchState.Checkpoint()
	s.note(data)
	return data, err
}

func (s *modelState) Restore(data []byte) error {
	if err := s.benchState.Restore(data); err != nil {
		return err
	}
	s.note(data)
	return nil
}

// modelSlot is one object key on the model's server. The wrapped state
// behind it can be replaced — a servant restarted behind the same
// reference, with a new Wrapper counting from 1 — and it can be made to
// answer OBJECT_NOT_EXIST, a death the proxy recovers from.
type modelSlot struct {
	w    atomic.Pointer[Wrapper]
	st   atomic.Pointer[modelState]
	dead atomic.Bool
}

func (s *modelSlot) TypeID() string { return "IDL:repro/BenchState:1.0" }

func (s *modelSlot) Invoke(ctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if s.dead.Load() {
		return &orb.SystemException{Kind: orb.ExObjectNotExist, Detail: "model: servant killed"}
	}
	return s.w.Load().Invoke(ctx, op, in, out)
}

// restart puts a fresh, empty servant behind the slot.
func (s *modelSlot) restart() {
	st := &modelState{benchState: newBenchState(64), had: map[string]bool{}}
	data, _ := st.benchState.Checkpoint()
	st.note(data)
	s.st.Store(st)
	s.w.Store(&Wrapper{Inner: st, State: st})
}

// modelStore is a MemStore that fails puts as the model draws — lost,
// refused as a bad base, lost to a second writer that took the epoch with
// the state the store already held, or applied with the ack lost — and
// checks after every applied put that the store holds a state the serving
// servant had.
type modelStore struct {
	inner   *MemStore
	serving func() *modelState

	mu     sync.Mutex
	rng    *rand.Rand
	faults bool
	bad    error
}

func (s *modelStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fault := -1
	if s.faults {
		fault = s.rng.Intn(12)
	}
	switch fault {
	case 0:
		return errors.New("model: put lost")
	case 1:
		if cp.IsDelta() {
			return fmt.Errorf("%w: model: replica behind", ErrBadBase)
		}
	case 2:
		if held, err := s.inner.Get(ctx, key); err == nil && held.Epoch < cp.Epoch {
			if err := s.inner.Put(ctx, key, Full(cp.Epoch, held.Data)); err != nil {
				return err
			}
		}
		return fmt.Errorf("%w: model: a second writer took epoch %d", ErrStaleEpoch, cp.Epoch)
	}
	if err := s.inner.Put(ctx, key, cp); err != nil {
		return err
	}
	held, err := s.inner.Get(ctx, key)
	if err == nil && !s.serving().hadState(held.Data) && s.bad == nil {
		s.bad = fmt.Errorf("after the put of epoch %d (delta: %v) the store holds a state the serving servant never had", cp.Epoch, cp.IsDelta())
	}
	if fault == 3 {
		return errors.New("model: ack lost")
	}
	return err
}

func (s *modelStore) Get(ctx context.Context, key string) (Checkpoint, error) {
	return s.inner.Get(ctx, key)
}
func (s *modelStore) Delete(ctx context.Context, key string) error { return s.inner.Delete(ctx, key) }
func (s *modelStore) Keys(ctx context.Context) ([]string, error)   { return s.inner.Keys(ctx) }

// modelWorld is one seeded run: a server whose slots are spawned as the
// run needs them, and one proxy checkpointing after every call.
type modelWorld struct {
	ctx   context.Context
	rng   *rand.Rand
	ad    *orb.Adapter
	store *modelStore
	proxy *Proxy

	mu    sync.Mutex
	slots []*modelSlot
	refs  []orb.ObjectRef
	cur   int // the slot the proxy is, or is about to be, calling
}

func (w *modelWorld) Resolve(context.Context, naming.Name) (orb.ObjectRef, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.refs[w.cur], nil
}

func (w *modelWorld) serving() *modelState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.slots[w.cur].st.Load()
}

// spawn activates a fresh slot and returns its index.
func (w *modelWorld) spawn() int {
	s := &modelSlot{}
	s.restart()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.slots = append(w.slots, s)
	w.refs = append(w.refs, w.ad.Activate(fmt.Sprintf("slot-%d", len(w.slots)), s))
	return len(w.slots) - 1
}

func (w *modelWorld) setCur(i int) {
	w.mu.Lock()
	w.cur = i
	w.mu.Unlock()
}

// call is one bump through the proxy, synchronous or deferred.
func (w *modelWorld) call(i int64, deferred bool) error {
	if !deferred {
		_, err := bump(w.proxy, i)
		return err
	}
	req := w.proxy.NewRequest(w.ctx, "bump")
	req.Args().PutInt64(i)
	req.Send()
	return req.GetResponse(nil)
}

// round runs 1–4 concurrent callers of 1–3 calls each.
func (w *modelWorld) round() error {
	callers := 1 + w.rng.Intn(4)
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		calls, first, deferred := 1+w.rng.Intn(3), w.rng.Int63n(64), w.rng.Intn(3) == 0
		go func() {
			var err error
			for k := int64(0); k < int64(calls) && err == nil; k++ {
				err = w.call(first+k, deferred)
			}
			errs <- err
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// event applies one drawn change between rounds, when no call is in
// flight: only the calling goroutine touches slots and cur then.
func (w *modelWorld) event() {
	switch w.rng.Intn(8) {
	case 0: // restart behind the same reference
		w.slots[w.cur].restart()
	case 1: // kill: the next call recovers onto a spare
		dead := w.slots[w.cur]
		spare := w.spawn()
		dead.dead.Store(true)
		w.setCur(spare)
	case 2: // migrate onto a spare; a failed put leaves the proxy where it is
		to := w.spawn()
		if w.proxy.Migrate(w.ctx, w.refs[to]) == nil {
			w.setCur(to)
		}
	case 3: // seed from a buffer the caller then reuses
		seed := newBenchState(64)
		for i := range seed.vec {
			seed.vec[i] = float64(w.rng.Intn(5))
		}
		buf, _ := seed.Checkpoint()
		_ = w.proxy.Seed(w.ctx, buf)
		w.rng.Read(buf)
	}
}

// runModelSeed runs one seeded schedule and reports the first violation,
// adding the proxy's counters to total.
func runModelSeed(t *testing.T, seed int64, rounds int, total *Stats) error {
	rng := rand.New(rand.NewSource(seed))
	srv := orb.New(orb.Options{Name: "model-srv"})
	defer srv.Shutdown()
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := orb.New(orb.Options{Name: "model-cli"})
	defer cli.Shutdown()
	w := &modelWorld{ctx: context.Background(), rng: rng, ad: ad}
	w.store = &modelStore{inner: NewMemStore(), serving: w.serving, rng: rand.New(rand.NewSource(rng.Int63())), faults: true}
	w.setCur(w.spawn())
	name := naming.NewName("model")
	if w.proxy, err = NewProxy(w.ctx, cli, name, w, w.store, Policy{CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		st := w.proxy.Stats()
		total.Checkpoints += st.Checkpoints
		total.DeltaCheckpoints += st.DeltaCheckpoints
		total.CheckpointFailures += st.CheckpointFailures
		total.Recoveries += st.Recoveries
	}()
	for r := 0; r < rounds; r++ {
		if err := w.round(); err != nil {
			return fmt.Errorf("round %d: a call failed: %w", r, err)
		}
		if w.store.bad != nil {
			return fmt.Errorf("round %d: %w", r, w.store.bad)
		}
		w.event()
	}
	w.store.mu.Lock()
	w.store.faults = false
	w.store.mu.Unlock()
	if err := w.call(0, false); err != nil {
		return fmt.Errorf("final call: %w", err)
	}
	if w.store.bad != nil {
		return w.store.bad
	}
	cp, err := w.store.Get(w.ctx, name.String())
	if err != nil {
		return err
	}
	if live, _ := w.serving().benchState.Checkpoint(); string(cp.Data) != string(live) {
		return errors.New("at the end the store does not hold the serving servant's state")
	}
	return nil
}

// TestDeltaProtocolModel draws seeded schedules against the whole delta
// protocol: rounds of 1–4 concurrent callers, synchronous and deferred;
// puts that are lost, refused as a bad base, lost to a second writer or
// applied with the ack lost; between rounds a servant restarted behind the
// same reference, a kill and recovery onto a spare, a Migrate, a Seed.
// After every applied put the store must hold a state the serving servant
// had, and at the end the servant's own state.
func TestDeltaProtocolModel(t *testing.T) {
	seeds, rounds := 150, 16
	if testing.Short() {
		seeds = 30
	}
	var total Stats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := runModelSeed(t, seed, rounds, &total); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("%d seeds: %+v", seeds, total)
	if total.DeltaCheckpoints == 0 || total.CheckpointFailures == 0 || total.Recoveries == 0 ||
		total.DeltaCheckpoints == total.Checkpoints {
		t.Fatalf("the schedules missed part of the protocol: %+v", total)
	}
}
