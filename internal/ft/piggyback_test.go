package ft

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
)

// flakyState is a counter whose Checkpoint can be made to fail, and which
// counts how often it is asked.
type flakyState struct {
	*counterServant
	fail     atomic.Bool
	captures atomic.Int64
}

func (s *flakyState) Checkpoint() ([]byte, error) {
	s.captures.Add(1)
	if s.fail.Load() {
		return nil, errors.New("injected: state not serializable")
	}
	return s.counterServant.Checkpoint()
}

// wireLog records, for every request the client ORB sends, its operation
// and whether it carried the SCCheckpoint mark.
type wireLog struct {
	mu   sync.Mutex
	reqs []wireReq
}

type wireReq struct {
	op     string
	marked bool
}

func (l *wireLog) hook() *clientHook {
	return &clientHook{sent: func(m *giop.Message) {
		l.mu.Lock()
		l.reqs = append(l.reqs, wireReq{m.Operation, m.HasContext(giop.SCCheckpoint)})
		l.mu.Unlock()
	}}
}

// of returns the marks of the requests for op, in send order.
func (l *wireLog) of(op string) []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	var marks []bool
	for _, r := range l.reqs {
		if r.op == op {
			marks = append(marks, r.marked)
		}
	}
	return marks
}

func (l *wireLog) reset() {
	l.mu.Lock()
	l.reqs = nil
	l.mu.Unlock()
}

func storedValue(t *testing.T, s Store, key string) (epoch uint64, value int64) {
	t.Helper()
	epoch, data, err := getFull(context.Background(), s, key)
	if err != nil {
		t.Fatal(err)
	}
	return epoch, decodeCounterState(t, data)
}

// TestCheckpointErrorStillDeliversTheReply: a servant that cannot serialize
// its state answers the business call anyway; the reply goes without the
// context, the proxy counts one failed checkpoint, does not reset its
// cadence — the very next call asks again — and only StrictCheckpoint
// turns the failure into an error.
func TestCheckpointErrorStillDeliversTheReply(t *testing.T) {
	var state *flakyState
	log := &wireLog{}
	w := newFTWorldWith(t, ftWorldOpts{
		client: orb.Options{CallInterceptors: []orb.CallInterceptor{log.hook()}},
		wrapA: func(c *counterServant) orb.Servant {
			state = &flakyState{counterServant: c}
			return &Wrapper{Inner: c, State: state}
		},
	})
	p := w.newProxy(Policy{CheckpointEvery: 2}, WithInitialRef(w.refA))
	if v, err := inc(p, 1); err != nil || v != 1 {
		t.Fatalf("inc 1 = %d, %v", v, err)
	}
	state.fail.Store(true)
	if v, err := inc(p, 1); err != nil || v != 2 {
		t.Fatalf("inc 2 = %d, %v: a failed Checkpoint() must not cost the business reply", v, err)
	}
	if st := p.Stats(); st.Calls != 2 || st.CheckpointFailures != 1 || st.Checkpoints != 0 {
		t.Fatalf("stats after the failed capture = %+v", st)
	}
	state.fail.Store(false)
	if v, err := inc(p, 1); err != nil || v != 3 {
		t.Fatalf("inc 3 = %d, %v", v, err)
	}
	if st := p.Stats(); st.CheckpointFailures != 1 || st.Checkpoints != 1 {
		t.Fatalf("stats after the retry = %+v: the failed checkpoint was not retried on the next call", st)
	}
	if _, v := storedValue(t, w.store, w.name.String()); v != 3 {
		t.Fatalf("stored value = %d, want 3", v)
	}
	if marks := log.of("inc"); len(marks) != 3 || marks[0] || !marks[1] || !marks[2] {
		t.Fatalf("marks on the three incs = %v, want [false true true]", marks)
	}

	strict, err := NewProxy(context.Background(), w.client, w.name, w.naming, w.store,
		Policy{CheckpointEvery: 1, StrictCheckpoint: true}, WithInitialRef(w.refA))
	if err != nil {
		t.Fatal(err)
	}
	state.fail.Store(true)
	if _, err := inc(strict, 1); !errors.Is(err, errNoState) {
		t.Fatalf("strict inc with a failing Checkpoint() = %v, want errNoState", err)
	}
	if got := w.ctrA.value; got != 4 {
		t.Fatalf("servant value = %d, want 4: the call itself ran", got)
	}
}

// TestUnwrappedServantCountsAsFailedCheckpoint: a marked call answered by a
// servant that knows nothing of checkpoints.
func TestUnwrappedServantCountsAsFailedCheckpoint(t *testing.T) {
	w := newFTWorldWith(t, ftWorldOpts{wrapA: func(c *counterServant) orb.Servant { return c }})
	p := w.newProxy(Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	if v, err := inc(p, 1); err != nil || v != 1 {
		t.Fatalf("inc = %d, %v", v, err)
	}
	if st := p.Stats(); st.CheckpointFailures != 1 || st.Checkpoints != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCheckpointedCallIsTwoRequests counts what the proxy puts on the wire:
// with CheckpointEvery 3 only every third call is marked and three calls
// cost four requests (the fourth is the put); with CheckpointEvery 1 every
// call is marked and costs exactly two. _get_checkpoint is sent by Migrate
// and by nothing else.
func TestCheckpointedCallIsTwoRequests(t *testing.T) {
	log := &wireLog{}
	w := newFTWorldWith(t, ftWorldOpts{
		client: orb.Options{CallInterceptors: []orb.CallInterceptor{log.hook()}},
	})
	run := func(every, calls int) (sent uint64, marks []bool) {
		t.Helper()
		p := w.newProxy(Policy{CheckpointEvery: every}, WithInitialRef(w.refA))
		log.reset()
		before := w.client.Stats().RequestsSent
		for i := 0; i < calls; i++ {
			if _, err := inc(p, 1); err != nil {
				t.Fatal(err)
			}
		}
		if st := p.Stats(); st.CheckpointFailures != 0 || int(st.Checkpoints) != calls/every {
			t.Fatalf("every=%d: stats = %+v", every, st)
		}
		return w.client.Stats().RequestsSent - before, log.of("inc")
	}

	sent, marks := run(3, 9)
	if sent != 12 {
		t.Fatalf("every=3: 9 calls sent %d requests, want 12", sent)
	}
	for i, m := range marks {
		if m != (i%3 == 2) {
			t.Fatalf("every=3: marks = %v, want every third", marks)
		}
	}
	sent, marks = run(1, 9)
	if sent != 18 {
		t.Fatalf("every=1: 9 calls sent %d requests, want 18", sent)
	}
	for _, m := range marks {
		if !m {
			t.Fatalf("every=1: marks = %v, want all", marks)
		}
	}
	if n := len(log.of(OpCheckpoint)); n != 0 {
		t.Fatalf("%d %s requests on the per-call path", n, OpCheckpoint)
	}

	p := w.newProxy(Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	log.reset()
	if err := p.Migrate(context.Background(), w.refB); err != nil {
		t.Fatal(err)
	}
	if n := len(log.of(OpCheckpoint)); n != 1 {
		t.Fatalf("Migrate sent %d %s requests, want 1", n, OpCheckpoint)
	}
}

// TestRequestProxyReplayIsMarkedAgain: the DII path. The request is in the
// dead server's hands when it dies; the replay sent to the survivor carries
// the mark again and the checkpoint is taken from the replayed reply.
func TestRequestProxyReplayIsMarkedAgain(t *testing.T) {
	log := &wireLog{}
	hang := &hangingServant{entered: make(chan struct{})}
	w := newFTWorldWith(t, ftWorldOpts{
		client: orb.Options{CallInterceptors: []orb.CallInterceptor{log.hook()}},
		wrapA: func(c *counterServant) orb.Servant {
			hang.counterServant = c
			return &Wrapper{Inner: hang, State: c}
		},
	})
	p := w.newProxy(Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	if v, err := inc(p, 100); err != nil || v != 100 {
		t.Fatalf("inc = %d, %v", v, err)
	}
	log.reset()
	hang.armed.Store(true)
	req := p.NewRequest(context.Background(), "inc")
	req.Args().PutInt64(1)
	req.Send()
	<-hang.entered // server A holds the request
	w.srvA.Shutdown()
	var v int64
	if err := req.GetResponse(func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() }); err != nil {
		t.Fatal(err)
	}
	if v != 101 {
		t.Fatalf("replayed value = %d, want 101", v)
	}
	if marks := log.of("inc"); len(marks) != 2 || !marks[0] || !marks[1] {
		t.Fatalf("marks on the original and the replay = %v, want [true true]", marks)
	}
	if n := len(log.of(OpCheckpoint)); n != 0 {
		t.Fatalf("%d %s requests on the DII path", n, OpCheckpoint)
	}
	st := p.Stats()
	if st.Checkpoints != 2 || st.CheckpointFailures != 0 || st.Recoveries != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if epoch, val := storedValue(t, w.store, w.name.String()); epoch != 2 || val != 101 {
		t.Fatalf("store holds epoch %d value %d, want 2 and 101", epoch, val)
	}
}

// hangingServant is a counter that, once armed, holds the next request
// until its connection dies.
type hangingServant struct {
	*counterServant
	armed   atomic.Bool
	entered chan struct{}
}

func (s *hangingServant) Invoke(ctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if !s.armed.Load() {
		return s.counterServant.Invoke(ctx, op, in, out)
	}
	close(s.entered)
	<-ctx.Context().Done()
	return orb.CommFailure("server going down")
}

// TestOlderSnapshotIsDropped: two callers on one proxy. X's call runs
// first (capture 1) but its reply is held back until Y's (capture 2) has
// been stored; X's snapshot is then older than what the store holds and is
// dropped — not stored, not a failure.
func TestOlderSnapshotIsDropped(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	hook := &clientHook{reply: func(req, _ *giop.Message, _ error) {
		if req.Operation == "inc" && first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
	}}
	w := newFTWorldWith(t, ftWorldOpts{client: orb.Options{CallInterceptors: []orb.CallInterceptor{hook}}})
	rec := &recordingStore{inner: NewMemStore()}
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, rec,
		Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	if err != nil {
		t.Fatal(err)
	}
	xDone := make(chan error, 1)
	go func() {
		_, err := inc(p, 1)
		xDone <- err
	}()
	<-held
	if v, err := inc(p, 1); err != nil || v != 2 {
		t.Fatalf("second caller: inc = %d, %v", v, err)
	}
	close(release)
	if err := <-xDone; err != nil {
		t.Fatalf("first caller: %v", err)
	}
	if st := p.Stats(); st.Calls != 2 || st.Checkpoints != 1 || st.CheckpointFailures != 0 {
		t.Fatalf("stats = %+v, want 2 calls, 1 checkpoint, no failure", st)
	}
	puts := rec.history()
	if len(puts) != 1 || puts[0].Epoch != 1 || decodeCounterState(t, puts[0].Data) != 2 {
		t.Fatalf("puts = %+v, want one: epoch 1 holding 2", puts)
	}
}

// orderedStore serializes puts and keeps the accepted ones in the order
// the store accepted them.
type orderedStore struct {
	recordingStore
	putMu    sync.Mutex
	accepted []Checkpoint
}

func (s *orderedStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	err := s.inner.Put(ctx, key, cp)
	if err == nil {
		cp.Data = bytes.Clone(cp.Data)
		s.accepted = append(s.accepted, cp)
	}
	return err
}

// TestConcurrentCallersStoreInCaptureOrder: callers race on one proxy.
// Whatever order their replies are processed in, the epochs the store
// accepts strictly increase and so does the state they hold — a newer
// epoch never carries an older capture — and once everyone is done the
// store's newest state is the servant's live state.
func TestConcurrentCallersStoreInCaptureOrder(t *testing.T) {
	const callers, each = 4, 50
	w := newFTWorld(t)
	store := &orderedStore{recordingStore: recordingStore{inner: NewMemStore()}}
	p, err := NewProxy(context.Background(), w.client, w.name, w.naming, store,
		Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := inc(p, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Calls != callers*each || st.Checkpoints != uint64(len(store.accepted)) {
		t.Fatalf("stats = %+v with %d accepted puts", st, len(store.accepted))
	}
	var lastEpoch uint64
	var lastValue int64
	for _, cp := range store.accepted {
		v := decodeCounterState(t, cp.Data)
		if cp.Epoch <= lastEpoch || v < lastValue {
			t.Fatalf("epoch %d holding %d accepted after epoch %d holding %d", cp.Epoch, v, lastEpoch, lastValue)
		}
		lastEpoch, lastValue = cp.Epoch, v
	}
	if _, v := storedValue(t, store, w.name.String()); v != callers*each || w.ctrA.value != callers*each {
		t.Fatalf("store holds %d, servant %d, want both %d", v, w.ctrA.value, callers*each)
	}
}

// TestPlainCallDoesNotCaptureState: a request without the mark — any plain
// stub's — gets no reply context and never reaches Checkpoint(); the same
// call with a bare mark gets capture 1, the full state.
func TestPlainCallDoesNotCaptureState(t *testing.T) {
	var state *flakyState
	w := newFTWorldWith(t, ftWorldOpts{wrapA: func(c *counterServant) orb.Servant {
		state = &flakyState{counterServant: c}
		return &Wrapper{Inner: c, State: state}
	}})
	ctx := context.Background()
	reply := giop.ServiceContext{ID: giop.SCCheckpoint}
	opts := orb.CallOptions{ReplyContext: &reply}
	if err := w.client.CallOpts(ctx, w.refA, "inc", encodeInt64Arg(7), discardInt64Reply, opts); err != nil {
		t.Fatal(err)
	}
	if reply.Data != nil || state.captures.Load() != 0 {
		t.Fatalf("unmarked call: reply context %v, %d captures", reply.Data, state.captures.Load())
	}
	opts.RequestContext = giop.ServiceContext{ID: giop.SCCheckpoint}
	if err := w.client.CallOpts(ctx, w.refA, "inc", encodeInt64Arg(1), discardInt64Reply, opts); err != nil {
		t.Fatal(err)
	}
	id, base, body, ok := decodeReply(reply.Data)
	if !ok || id.seq != 1 || base != 0 || decodeCounterState(t, body) != 8 || state.captures.Load() != 1 {
		t.Fatalf("marked call: capture %+v, base %d, ok %v, %d captures", id, base, ok, state.captures.Load())
	}
	// A business failure is not a state worth capturing.
	if err := w.client.CallOpts(ctx, w.refA, "fail_user", nil, nil, opts); err == nil {
		t.Fatal("fail_user succeeded")
	}
	if reply.Data != nil || state.captures.Load() != 1 {
		t.Fatalf("failed call: reply context %v, %d captures", reply.Data, state.captures.Load())
	}
}

// FuzzCheckpointContext feeds arbitrary bytes to both SCCheckpoint
// decoders and, as a marked call's reply, to a proxy whose store and base
// hold a known capture. Neither decoder may panic, and whatever one accepts
// re-encodes to the same bytes. The proxy answers every reply with an
// error, a drop or a put: a delta that fails checkDelta or names another
// base leaves the proxy's base and the store byte for byte as they were,
// and one it relays leaves both holding the base with the delta applied.
func FuzzCheckpointContext(f *testing.F) {
	base := bytes.Repeat([]byte("0123456789abcdef"), 8)
	next := bytes.Clone(base)
	next[40] = 'x'
	reply := func(id captureID, baseSeq uint64, body []byte) []byte {
		e := cdr.NewEncoder(0)
		putReplyHeader(e, id, baseSeq)
		e.PutRaw(body)
		return e.Bytes()
	}
	f.Add(reply(captureID{7, 2}, 1, ComputeDelta(base, next)))
	f.Add(reply(captureID{7, 2}, 0, next))
	f.Add(reply(captureID{7, 2}, 1, hostileDelta(uint64(len(base)), 1<<40)))
	f.Add(reply(captureID{7, 2}, 1, ComputeDelta(next, base[:100])))
	f.Add(reply(captureID{7, 1}, 0, next))
	f.Add(reply(captureID{7, 3}, 2, ComputeDelta(base, next)))
	f.Add(captureID{7, 1}.putMark(make([]byte, markLen)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if id := decodeMark(data); id.inc != 0 {
			if again := id.putMark(make([]byte, markLen)); !bytes.Equal(again, data) {
				t.Fatalf("mark %+v re-encodes to %x, want %x", id, again, data)
			}
		}
		id, baseSeq, body, ok := decodeReply(data)
		if ok {
			if again := reply(id, baseSeq, body); !bytes.Equal(again, data) {
				t.Fatalf("reply header %+v, base %d re-encodes to %x, want %x", id, baseSeq, again, data)
			}
		}

		ctx := context.Background()
		store := NewMemStore()
		p := &Proxy{store: store, key: "k"}
		if err := p.storeSnapshot(ctx, orb.ObjectRef{}, reply(captureID{7, 1}, 0, bytes.Clone(base))); err != nil {
			t.Fatal(err)
		}
		err := p.storeSnapshot(ctx, orb.ObjectRef{}, data)
		held, gerr := store.Get(ctx, "k")
		if gerr != nil {
			t.Fatal(gerr)
		}
		want := base
		if err == nil && held.Epoch == 2 {
			if want = body; baseSeq != 0 {
				want, _ = ApplyDelta(base, body)
			}
		}
		if !bytes.Equal(held.Data, want) || !bytes.Equal(p.lastFull, want) {
			t.Fatalf("reply %x (error %v): store holds %x, proxy base %x; want %x", data, err, held.Data, p.lastFull, want)
		}
	})
}
