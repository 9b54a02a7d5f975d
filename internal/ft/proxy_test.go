package ft

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/cluster"
	"repro/internal/naming"
	"repro/internal/orb"
)

// counterServant is a stateful test service: inc(by) returns the new
// value, get() returns it. State is the single int64.
type counterServant struct {
	mu    sync.Mutex
	value int64
}

func (c *counterServant) TypeID() string { return "IDL:repro/Counter:1.0" }

func (c *counterServant) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "inc":
		by := in.GetInt64()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		c.value += by
		out.PutInt64(c.value)
		return nil
	case "get":
		out.PutInt64(c.value)
		return nil
	case "fail_user":
		return &orb.UserException{RepoID: "IDL:repro/Boom:1.0", Detail: "requested"}
	default:
		return orb.BadOperation(op)
	}
}

func (c *counterServant) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cdr.NewEncoder(8)
	e.PutInt64(c.value)
	return e.Bytes(), nil
}

func (c *counterServant) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	v := d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.value = v
	c.mu.Unlock()
	return nil
}

// ftWorld is a complete fault-tolerance test fixture: a services process
// (naming + checkpoint store), two server processes each hosting a wrapped
// counter servant registered as offers of one name, and a client ORB.
type ftWorld struct {
	t        *testing.T
	client   *orb.ORB
	services *orb.ORB
	srvA     *orb.ORB
	srvB     *orb.ORB
	adA      *orb.Adapter
	adB      *orb.Adapter
	ctrA     *counterServant
	ctrB     *counterServant
	refA     orb.ObjectRef
	refB     orb.ObjectRef
	naming   *naming.Client
	nsSrv    *naming.Servant
	nsHub    *naming.Hub
	store    *StoreClient
	name     naming.Name
}

// ftWorldOpts vary the fixture for the fault-injection tests: the
// transport seams and interceptors of the client and of server A, the
// servant server A activates (Wrap(ctrA) when nil), and the naming
// registry's offer observer (installed before the two offers are bound).
type ftWorldOpts struct {
	client        orb.Options
	srvA          orb.Options
	wrapA         func(*counterServant) orb.Servant
	offerObserver func(n naming.Name, o naming.Offer, bound bool)
}

func newFTWorld(t *testing.T) *ftWorld {
	t.Helper()
	return newFTWorldWith(t, ftWorldOpts{})
}

func newFTWorldWith(t *testing.T, opts ftWorldOpts) *ftWorld {
	t.Helper()
	w := &ftWorld{t: t, name: naming.NewName("counter")}
	opts.client.Name, opts.srvA.Name = "client", "srvA"
	if opts.wrapA == nil {
		opts.wrapA = func(c *counterServant) orb.Servant { return Wrap(c) }
	}

	w.services = orb.New(orb.Options{Name: "services"})
	t.Cleanup(w.services.Shutdown)
	svcAd, err := w.services.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := naming.NewRegistry()
	if opts.offerObserver != nil {
		reg.SetOfferObserver(opts.offerObserver)
	}
	w.nsSrv = naming.NewServant(reg, naming.RoundRobinSelector())
	w.nsHub = naming.NewHub(w.services, reg, naming.HubOptions{})
	w.nsHub.Start()
	t.Cleanup(w.nsHub.Stop)
	w.nsSrv.SetHub(w.nsHub)
	nsRef := svcAd.Activate(naming.DefaultKey, w.nsSrv)
	storeRef := svcAd.Activate(StoreDefaultKey, NewStoreServant(NewMemStore()))

	w.client = orb.New(opts.client)
	t.Cleanup(w.client.Shutdown)
	w.naming = naming.NewClient(w.client, nsRef)
	w.store = NewStoreClient(w.client, storeRef)

	w.srvA = orb.New(opts.srvA)
	t.Cleanup(w.srvA.Shutdown)
	w.adA, err = w.srvA.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.ctrA = &counterServant{}
	w.refA = w.adA.Activate("ctr", opts.wrapA(w.ctrA))

	w.srvB = orb.New(orb.Options{Name: "srvB"})
	t.Cleanup(w.srvB.Shutdown)
	w.adB, err = w.srvB.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.ctrB = &counterServant{}
	w.refB = w.adB.Activate("ctr", Wrap(w.ctrB))

	if err := w.naming.BindOffer(context.Background(), w.name, w.refA, "hostA"); err != nil {
		t.Fatal(err)
	}
	if err := w.naming.BindOffer(context.Background(), w.name, w.refB, "hostB"); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *ftWorld) newProxy(policy Policy, opts ...ProxyOption) *Proxy {
	w.t.Helper()
	opts = append(opts, WithUnbinder(w.naming))
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, w.store, policy, opts...)
	if err != nil {
		w.t.Fatal(err)
	}
	return p
}

func inc(p *Proxy, by int64) (int64, error) {
	var v int64
	err := p.Call(context.Background(), "inc",
		func(e *cdr.Encoder) { e.PutInt64(by) },
		func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() })
	return v, err
}

func TestProxyForwardsCalls(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	for i := int64(1); i <= 3; i++ {
		v, err := inc(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("value = %d, want %d", v, i)
		}
	}
	st := p.Stats()
	if st.Calls != 3 || st.Checkpoints != 3 || st.Recoveries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxyCheckpointsLandInStore(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 41); err != nil {
		t.Fatal(err)
	}
	epoch, data, err := getFull(context.Background(), w.store, w.name.String())
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d", epoch)
	}
	d := cdr.NewDecoder(data)
	if got := d.GetInt64(); got != 41 {
		t.Fatalf("checkpointed value = %d", got)
	}
}

func TestProxyRecoversAcrossServerCrash(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	// Round-robin resolve: the proxy starts on server A.
	if _, err := inc(p, 10); err != nil {
		t.Fatal(err)
	}
	// Kill A: the next call hits COMM_FAILURE, recovery resolves B,
	// restores value=10 there, and replays inc(5) → 15.
	w.adA.Close()
	w.srvA.Shutdown()
	v, err := inc(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 15 {
		t.Fatalf("value after recovery = %d, want 15", v)
	}
	st := p.Stats()
	if st.Recoveries != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The dead offer was unbound: only hostB remains.
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil || len(offers) != 1 || offers[0].Host != "hostB" {
		t.Fatalf("offers = %+v, %v", offers, err)
	}
	// Server B carries the restored state.
	if w.ctrB.value != 15 {
		t.Fatalf("ctrB = %d", w.ctrB.value)
	}
	// Server A's state is obsolete but untouched (it is dead).
	if w.ctrA.value != 10 {
		t.Fatalf("ctrA = %d", w.ctrA.value)
	}
}

// TestRecoveryUnbindLeavesMembership follows a silent server death out of
// the group over the wire: the proxy's recovery unbinds the dead offer,
// the registry's offer observer turns the host's last offer going away
// into one membership Leave, and a later report of the same death from
// another source adds nothing.
func TestRecoveryUnbindLeavesMembership(t *testing.T) {
	membership := cluster.NewMembership()
	tracker := membership.TrackOffers("naming")
	w := newFTWorldWith(t, ftWorldOpts{
		offerObserver: func(_ naming.Name, o naming.Offer, bound bool) {
			if bound {
				tracker.Bound(o.Host)
			} else {
				tracker.Unbound(o.Host)
			}
		},
	})
	if got := membership.Alive(); !slices.Equal(got, []string{"hostA", "hostB"}) {
		t.Fatalf("alive = %v", got)
	}
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 10); err != nil { // round-robin: server A
		t.Fatal(err)
	}
	w.adA.Close()
	w.srvA.Shutdown()
	if v, err := inc(p, 5); err != nil || v != 15 {
		t.Fatalf("recovered inc = %d, %v", v, err)
	}
	if st := p.Stats(); st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}

	if n := membership.Leaves(); n != 1 {
		t.Fatalf("leaves = %d, want 1", n)
	}
	if got := membership.Alive(); !slices.Equal(got, []string{"hostB"}) {
		t.Fatalf("alive = %v after hostA died", got)
	}
	membership.ReportDead("hostA", "winner")
	if n := membership.Leaves(); n != 1 {
		t.Fatalf("leaves = %d after a second report of the same death", n)
	}

	_, data, err := getFull(context.Background(), w.store, w.name.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeCounterState(t, data); got != w.ctrB.value {
		t.Fatalf("store = %d, servant on B = %d", got, w.ctrB.value)
	}
}

func TestProxyCrashBeforeAnyCheckpoint(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	w.adA.Close()
	w.srvA.Shutdown()
	// No checkpoint exists; recovery resolves B and replays against its
	// zero state — the stateless-service path the paper describes first.
	v, err := inc(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("value = %d", v)
	}
}

func TestProxyCheckpointEveryN(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 3})
	for i := 0; i < 7; i++ {
		if _, err := inc(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Checkpoints != 2 { // after calls 3 and 6
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
}

// TestProxyCheckpointCadenceRetriesAfterFailure: a checkpoint that fails
// when due is attempted again after the very next successful call, not a
// whole CheckpointEvery interval later.
func TestProxyCheckpointCadenceRetriesAfterFailure(t *testing.T) {
	w := newFTWorld(t)
	rec := &recordingStore{inner: NewMemStore()}
	failOnce := true
	rec.failPut = func(Checkpoint) error {
		if failOnce {
			failOnce = false
			return errors.New("injected: store unavailable")
		}
		return nil
	}
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, rec, Policy{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Failed and stored checkpoints after each call: the put due on call 3
	// fails, call 4 retries it, and the cadence restarts from there.
	want := []struct{ failed, stored uint64 }{{0, 0}, {0, 0}, {1, 0}, {1, 1}, {1, 1}, {1, 1}, {1, 2}}
	for i, exp := range want {
		if _, err := inc(p, 1); err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.CheckpointFailures != exp.failed || st.Checkpoints != exp.stored {
			t.Fatalf("after call %d: stats = %+v, want %d failed / %d stored", i+1, st, exp.failed, exp.stored)
		}
		if i+1 == 4 {
			_, data, err := getFull(context.Background(), rec, w.name.String())
			if err != nil {
				t.Fatal(err)
			}
			if v := decodeCounterState(t, data); v != 4 {
				t.Fatalf("stored value = %d, want 4 (checkpoint retried on call 4)", v)
			}
		}
	}
}

func TestProxyNoCheckpointingWhenDisabled(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 0})
	for i := 0; i < 5; i++ {
		if _, err := inc(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
	if _, _, err := getFull(context.Background(), w.store, w.name.String()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("store err = %v", err)
	}
}

func TestProxyUserExceptionNotRecovered(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	err := p.Call(context.Background(), "fail_user", nil, nil)
	if !orb.IsUserException(err, "IDL:repro/Boom:1.0") {
		t.Fatalf("err = %v", err)
	}
	if st := p.Stats(); st.Recoveries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxyRecoveryExhausted(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1, MaxRecoveries: 2})
	// Kill both servers: recovery cannot succeed.
	w.adA.Close()
	w.srvA.Shutdown()
	w.adB.Close()
	w.srvB.Shutdown()
	_, err := inc(p, 1)
	var re *RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	// The terminal cause is either the transport failure itself or — once
	// the proxy has unbound every dead offer — the naming service
	// reporting that no server is left.
	cause := errors.Unwrap(re)
	if !orb.IsCommFailure(cause) && !orb.IsUserException(cause, naming.ExNotFound) {
		t.Fatalf("unwrapped = %v", cause)
	}
}

// TestAdmissionShedIsNotACrash: a throttled server is alive. A call its
// admission control sheds comes back at once with the server's
// retry-after hint; the proxy neither recovers nor unbinds the offer, and
// a call after the hint succeeds on the same server. Server A admits ten
// calls a second, so the hint is at most 100 ms and a stress run of this
// test stays short.
func TestAdmissionShedIsNotACrash(t *testing.T) {
	w := newFTWorldWith(t, ftWorldOpts{srvA: orb.Options{QoS: orb.QoSOptions{TenantRate: 10, TenantBurst: 1}}})
	p := w.newProxy(Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	call := func() (time.Duration, error) {
		start := time.Now()
		err := p.Call(ctx, "inc", func(e *cdr.Encoder) { e.PutInt64(1) }, nil)
		return time.Since(start), err
	}

	var (
		shed error
		took time.Duration
		ok   int64
	)
	for i := 0; i < 20 && shed == nil; i++ {
		var err error
		if took, err = call(); err == nil {
			ok++
		} else {
			shed = err
		}
	}
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil {
		t.Fatal(err)
	}
	if shed == nil {
		t.Fatalf("no call of %d was shed: stats %+v, %d offers left", ok, p.Stats(), len(offers))
	}
	if !orb.IsAdmissionShed(shed) {
		t.Fatalf("err = %v, want an admission shed", shed)
	}
	hint := orb.RetryAfterHint(shed)
	if hint <= 0 {
		t.Fatalf("shed carries no retry-after hint: %v", shed)
	}
	if took >= hint/2 {
		t.Fatalf("shed call took %v against a %v hint: the proxy waited instead of returning it", took, hint)
	}
	if st := p.Stats(); st.Recoveries != 0 || st.Replays != 0 {
		t.Fatalf("a shed triggered recovery: stats %+v", st)
	}
	if len(offers) != 2 {
		t.Fatalf("offers = %d after a shed, want both still bound", len(offers))
	}
	if p.Ref() != w.refA {
		t.Fatalf("proxy moved to %v after a shed", p.Ref())
	}

	time.Sleep(hint)
	if _, err := call(); err != nil {
		t.Fatalf("call after the retry-after hint: %v", err)
	}
	if p.Ref() != w.refA || w.ctrA.value != ok+1 || w.ctrB.value != 0 {
		t.Fatalf("after the hint: ref %v, A=%d (want %d), B=%d (want 0)", p.Ref(), w.ctrA.value, ok+1, w.ctrB.value)
	}
}

func TestProxyEpochAdoption(t *testing.T) {
	w := newFTWorld(t)
	// Simulate a previous proxy incarnation having stored epoch 9.
	if err := putFull(context.Background(), w.store, w.name.String(), 9, []byte{0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 1); err != nil {
		t.Fatal(err)
	}
	epoch, _, err := getFull(context.Background(), w.store, w.name.String())
	if err != nil || epoch != 10 {
		t.Fatalf("epoch = %d, %v", epoch, err)
	}
}

func TestProxyStrictCheckpointPropagatesFailure(t *testing.T) {
	w := newFTWorld(t)
	// A store that always rejects puts.
	bad := &rejectingStore{}
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, bad, Policy{CheckpointEvery: 1, StrictCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc(p, 1); err == nil {
		t.Fatal("strict checkpoint failure not propagated")
	}
	// Non-strict: same failure is absorbed, call succeeds.
	p2, err := NewProxy(context.Background(), w.client, w.name, w.naming, bad, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc(p2, 1); err != nil {
		t.Fatal(err)
	}
	if st := p2.Stats(); st.CheckpointFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

type rejectingStore struct{}

func (rejectingStore) Put(context.Context, string, Checkpoint) error {
	return errors.New("store full")
}
func (rejectingStore) Get(context.Context, string) (Checkpoint, error) {
	return Checkpoint{}, ErrNoCheckpoint
}
func (rejectingStore) Delete(context.Context, string) error   { return nil }
func (rejectingStore) Keys(context.Context) ([]string, error) { return nil, nil }

func TestProxyMigrate(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 30); err != nil {
		t.Fatal(err)
	}
	// Migrate the service from A to B due to "a changing load situation".
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil {
		t.Fatal(err)
	}
	var target orb.ObjectRef
	for _, o := range offers {
		if o.Host == "hostB" {
			target = o.Ref
		}
	}
	if err := p.Migrate(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	if w.ctrB.value != 30 {
		t.Fatalf("migrated value = %d", w.ctrB.value)
	}
	v, err := inc(p, 1)
	if err != nil || v != 31 {
		t.Fatalf("post-migration inc = %d, %v", v, err)
	}
	if w.ctrA.value != 30 {
		t.Fatalf("ctrA mutated after migration: %d", w.ctrA.value)
	}
}

// getCountingStore counts the reads that reach the store.
type getCountingStore struct {
	Store
	gets atomic.Int64
}

func (s *getCountingStore) Get(ctx context.Context, key string) (Checkpoint, error) {
	s.gets.Add(1)
	return s.Store.Get(ctx, key)
}

// TestProxyMigrateReadsNothingBack: Migrate pushes the state it fetched
// and stored, so the store sees a put and no get; recovery after a crash,
// which holds no state, still reads the newest checkpoint.
func TestProxyMigrateReadsNothingBack(t *testing.T) {
	w := newFTWorld(t)
	store := &getCountingStore{Store: w.store}
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, store,
		Policy{CheckpointEvery: 1}, WithInitialRef(w.refA), WithUnbinder(w.naming))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc(p, 30); err != nil {
		t.Fatal(err)
	}
	store.gets.Store(0) // NewProxy read the epoch
	if err := p.Migrate(context.Background(), w.refB); err != nil {
		t.Fatal(err)
	}
	if n := store.gets.Load(); n != 0 {
		t.Fatalf("Migrate made %d store gets, want 0", n)
	}
	if w.ctrB.value != 30 {
		t.Fatalf("migrated value = %d", w.ctrB.value)
	}
	if v, err := inc(p, 1); err != nil || v != 31 {
		t.Fatalf("post-migration inc = %d, %v", v, err)
	}

	w.adB.Close()
	w.srvB.Shutdown()
	if v, err := inc(p, 1); err != nil || v != 32 {
		t.Fatalf("post-recovery inc = %d, %v", v, err)
	}
	if n := store.gets.Load(); n != 1 {
		t.Fatalf("recovery made %d store gets, want 1", n)
	}
}

func TestProxyConcurrentCallsDuringCrash(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 0, MaxRecoveries: 5})
	if _, err := inc(p, 0); err != nil {
		t.Fatal(err)
	}
	w.adA.Close()
	w.srvA.Shutdown()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := inc(p, 1)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if w.ctrB.value != 8 {
		t.Fatalf("ctrB = %d, want 8", w.ctrB.value)
	}
}

func TestRequestProxyAsyncRecovery(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	// Seed state via a sync call (checkpoint lands in the store).
	if _, err := inc(p, 100); err != nil {
		t.Fatal(err)
	}
	w.adA.Close()
	w.srvA.Shutdown()
	req := p.NewRequest(context.Background(), "inc")
	req.Args().PutInt64(1)
	req.Send()
	var v int64
	if err := req.GetResponse(func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() }); err != nil {
		t.Fatal(err)
	}
	if v != 101 {
		t.Fatalf("async recovered value = %d", v)
	}
}

func TestRequestProxyNormalFlow(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	req := p.NewRequest(context.Background(), "inc")
	req.Args().PutInt64(2)
	if req.PollResponse() {
		t.Fatal("poll before send")
	}
	req.Send()
	req.Send() // idempotent
	var v int64
	if err := req.GetResponse(func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() }); err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("v = %d", v)
	}
	if st := p.Stats(); st.Calls != 1 || st.Checkpoints != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxyWithInitialRef(t *testing.T) {
	w := newFTWorld(t)
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the proxy to the second offer; no initial resolve happens.
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, w.store,
		Policy{CheckpointEvery: 1}, WithInitialRef(offers[1].Ref))
	if err != nil {
		t.Fatal(err)
	}
	if p.Ref() != offers[1].Ref {
		t.Fatalf("ref = %v", p.Ref())
	}
	if v, err := inc(p, 3); err != nil || v != 3 {
		t.Fatalf("inc = %d, %v", v, err)
	}
	if w.ctrB.value != 3 {
		t.Fatalf("call went to the wrong servant: A=%d B=%d", w.ctrA.value, w.ctrB.value)
	}
}

func TestProxyNotifyOneway(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{})
	// The counter servant ignores unknown ops for oneways (no reply), so
	// just verify the call is written without error.
	if err := p.Notify(context.Background(), "inc", func(e *cdr.Encoder) { e.PutInt64(5) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.ctrA.mu.Lock()
		v := w.ctrA.value
		w.ctrA.mu.Unlock()
		if v == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("oneway never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRequestProxyOperation(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{})
	if op := p.NewRequest(context.Background(), "inc").Operation(); op != "inc" {
		t.Fatalf("operation = %q", op)
	}
	if w.store.Ref().IsNil() {
		t.Fatal("store ref nil")
	}
}

func TestRequestProxyGetBeforeSend(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{})
	req := p.NewRequest(context.Background(), "inc")
	if err := req.GetResponse(nil); !orb.IsSystemException(err, orb.ExBadOperation) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrapperCheckpointRestoreOps(t *testing.T) {
	w := newFTWorld(t)
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil {
		t.Fatal(err)
	}
	refA := offers[0].Ref
	w.ctrA.value = 5
	data, err := FetchCheckpoint(context.Background(), w.client, refA)
	if err != nil {
		t.Fatal(err)
	}
	w.ctrA.value = 0
	if err := PushRestore(context.Background(), w.client, refA, data); err != nil {
		t.Fatal(err)
	}
	if w.ctrA.value != 5 {
		t.Fatalf("restored = %d", w.ctrA.value)
	}
}

func TestWrapperRestoreGarbageFails(t *testing.T) {
	w := newFTWorld(t)
	offers, _ := w.naming.ListOffers(context.Background(), w.name)
	err := PushRestore(context.Background(), w.client, offers[0].Ref, []byte{1, 2, 3})
	if !orb.IsUserException(err, ExCheckpointFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreServiceRemote(t *testing.T) {
	w := newFTWorld(t)
	if err := putFull(context.Background(), w.store, "k", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	epoch, data, err := getFull(context.Background(), w.store, "k")
	if err != nil || epoch != 1 || string(data) != "v" {
		t.Fatalf("get = %d %q %v", epoch, data, err)
	}
	if err := putFull(context.Background(), w.store, "k", 1, []byte("v2")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v", err)
	}
	keys, err := w.store.Keys(context.Background())
	if err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	if err := w.store.Delete(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := getFull(context.Background(), w.store, "k"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v", err)
	}
}
