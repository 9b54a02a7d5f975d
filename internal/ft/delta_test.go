package ft

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

// deltaCase is one (base, next) pair the delta codec must round-trip.
type deltaCase struct {
	name       string
	base, next []byte
}

// deltaCases are the codec's fixed inputs: TestComputeApplyDeltaRoundtrip
// runs them and FuzzApplyDelta starts from them.
func deltaCases() []deltaCase {
	rng := rand.New(rand.NewSource(42))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	base512 := randBytes(512)
	mutate := func(b []byte, idxs ...int) []byte {
		out := append([]byte(nil), b...)
		for _, i := range idxs {
			out[i] ^= 0xff
		}
		return out
	}
	// A bulk-sized state: equal blocks, one changed element and the counter,
	// and a run that ends exactly at a block boundary.
	base64k := randBytes(65552)
	return []deltaCase{
		{"identical", base512, append([]byte(nil), base512...)},
		{"single-byte", base512, mutate(base512, 100)},
		{"scattered", base512, mutate(base512, 0, 17, 18, 130, 131, 132, 511)},
		{"adjacent-runs", base512, mutate(base512, 10, 11, 12, 20, 21, 22)},
		{"grow", base512, append(append([]byte(nil), base512...), randBytes(64)...)},
		{"shrink", base512, append([]byte(nil), base512[:300]...)},
		{"empty-base", nil, randBytes(32)},
		{"empty-next", base512, []byte{}},
		{"all-different", base512, randBytes(512)},
		{"bulk-one-element", base64k, mutate(base64k, 32776, 32777, 65551)},
		{"bulk-block-edges", base64k, mutate(base64k, 255, 256, 511, 4096, 4111, 4127)},
	}
}

// refComputeDelta is the byte-at-a-time encoder ComputeDelta replaced, kept
// as the reference for its output: same segments, same bytes.
func refComputeDelta(base, next []byte) []byte {
	type seg struct{ start, end int }
	var segs []seg
	n := len(next)
	common := min(len(base), n)
	i := 0
	for i < common {
		if base[i] == next[i] {
			i++
			continue
		}
		start, last := i, i
		for i < common {
			if base[i] != next[i] {
				last = i
				i++
				continue
			}
			j := i
			for j < common && base[j] == next[j] && j-i < deltaMergeGap {
				j++
			}
			if j-i >= deltaMergeGap || j == common {
				break
			}
			i = j
			last = j - 1
		}
		segs = append(segs, seg{start: start, end: last + 1})
	}
	if n > len(base) {
		segs = append(segs, seg{start: len(base), end: n})
	}
	e := cdr.NewEncoder(0)
	e.PutUint64(uint64(len(base)))
	e.PutUint64(uint64(n))
	e.PutUint32(uint32(len(segs)))
	for _, s := range segs {
		e.PutUint64(uint64(s.start))
		e.PutBytes(next[s.start:s.end])
	}
	return e.Bytes()
}

func TestComputeApplyDeltaRoundtrip(t *testing.T) {
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			delta := ComputeDelta(tc.base, tc.next)
			if ref := refComputeDelta(tc.base, tc.next); !bytes.Equal(delta, ref) {
				t.Fatalf("delta differs from the reference encoder's:\n got %x\nwant %x", delta, ref)
			}
			if _, size := diffSegments(nil, tc.base, tc.next, len(delta)+1); size != len(delta) {
				t.Fatalf("size worked out beforehand = %d, encoded %d", size, len(delta))
			}
			got, err := ApplyDelta(tc.base, delta)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if !bytes.Equal(got, tc.next) {
				t.Fatalf("roundtrip mismatch: got %d bytes, want %d", len(got), len(tc.next))
			}
		})
	}
}

func TestDeltaSmallerForLocalizedChange(t *testing.T) {
	base := make([]byte, 4096)
	next := append([]byte(nil), base...)
	next[1000] = 1
	next[1001] = 2
	delta := ComputeDelta(base, next)
	if len(delta) >= len(next) {
		t.Fatalf("delta (%d bytes) not smaller than full state (%d bytes)", len(delta), len(next))
	}
}

func TestApplyDeltaBaseLengthMismatch(t *testing.T) {
	base := []byte("0123456789")
	next := []byte("0123456x89")
	delta := ComputeDelta(base, next)
	if _, err := ApplyDelta(base[:5], delta); err == nil {
		t.Fatal("ApplyDelta accepted a delta computed against a different base length")
	}
}

func TestApplyDeltaRejectsDamage(t *testing.T) {
	base := bytes.Repeat([]byte{7}, 100)
	next := append([]byte(nil), base...)
	next[50] = 0
	delta := ComputeDelta(base, next)
	// Truncation and bit-flips must fail cleanly, never panic or return
	// silently wrong state of a different shape than an error.
	for cut := 1; cut < len(delta); cut += 7 {
		if out, err := ApplyDelta(base, delta[:cut]); err == nil && !bytes.Equal(out, next) {
			t.Fatalf("truncated delta (len %d) produced wrong state without error", cut)
		}
	}
}

// hostileDelta encodes a delta header and segments as given, whatever they
// claim.
func hostileDelta(baseLen, newLen uint64, segs ...deltaSeg) []byte {
	e := cdr.NewEncoder(0)
	e.PutUint64(baseLen)
	e.PutUint64(newLen)
	e.PutUint32(uint32(len(segs)))
	for _, s := range segs {
		e.PutUint64(uint64(s.start))
		e.PutBytes(make([]byte, s.end-s.start))
	}
	return e.Bytes()
}

// TestApplyDeltaRefusesLyingLengths: a delta's declared result length is
// checked against what it and its base hold before anything is allocated —
// every store applies the deltas that arrive off the wire.
func TestApplyDeltaRefusesLyingLengths(t *testing.T) {
	base := make([]byte, 64)
	for _, c := range []struct {
		name  string
		delta []byte
	}{
		{"length past anything carried", hostileDelta(64, 1<<62)},
		{"length past the last segment", hostileDelta(64, 1<<30, deltaSeg{64, 80})},
		{"tail with a hole", hostileDelta(64, 96, deltaSeg{80, 96})},
		{"segment far past the base", hostileDelta(64, 1<<40+8, deltaSeg{1 << 40, 1<<40 + 8})},
		{"segments out of order", hostileDelta(64, 64, deltaSeg{32, 40}, deltaSeg{8, 16})},
		{"segment past the result", hostileDelta(64, 32, deltaSeg{24, 40})},
		{"count past the segments", append(hostileDelta(64, 64)[:16], 0xff, 0xff, 0xff, 0xff)},
	} {
		var err error
		if b := allocatedBytes(func() { _, err = ApplyDelta(base, c.delta) }); b > 4096 {
			t.Errorf("%s: %d bytes allocated", c.name, b)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzApplyDelta: the differential half encodes a fuzzer-chosen next
// against a fuzzer-chosen base and must get next back, with the bytes the
// reference encoder writes; the hostile half applies arbitrary bytes as a
// delta, which must never panic, must give an error or a result and never
// both, must not yield more than the delta and its base hold, and must
// leave a base it patches in place untouched when it fails.
func FuzzApplyDelta(f *testing.F) {
	for _, tc := range deltaCases() {
		if len(tc.base) > 1024 {
			continue // the fuzzer's inputs are kept small
		}
		d := ComputeDelta(tc.base, tc.next)
		f.Add(tc.base, tc.next, d)
		f.Add(tc.base, tc.next, d[:len(d)-1])
	}
	f.Add([]byte("0123456789"), []byte("0123456x89"), hostileDelta(10, 1<<62))
	f.Add(make([]byte, 16), make([]byte, 16), hostileDelta(16, 1<<40+8, deltaSeg{1 << 40, 1<<40 + 8}))

	f.Fuzz(func(t *testing.T, base, next, delta []byte) {
		d := ComputeDelta(base, next)
		if ref := refComputeDelta(base, next); !bytes.Equal(d, ref) {
			t.Fatalf("delta differs from the reference encoder's:\n got %x\nwant %x", d, ref)
		}
		if got, err := ApplyDelta(base, d); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("ApplyDelta(base, ComputeDelta(base, next)) = %x, %v; want %x", got, err, next)
		}

		out, err := ApplyDelta(base, delta)
		if (err == nil) == (out == nil) {
			t.Fatalf("ApplyDelta returned %d bytes and error %v", len(out), err)
		}
		if len(out) > len(base)+len(delta) {
			t.Fatalf("a %d byte delta on a %d byte base materialized %d bytes", len(delta), len(base), len(out))
		}
		own := append([]byte(nil), base...)
		patched, perr := applyDelta(own, delta, true)
		if (perr == nil) != (err == nil) || !bytes.Equal(patched, out) {
			t.Fatalf("in place: %x, %v; copying: %x, %v", patched, perr, out, err)
		}
		if perr != nil && !bytes.Equal(own, base) {
			t.Fatal("a rejected delta wrote to the base it was to patch in place")
		}
	})
}

func TestCheckpointWireRoundtrip(t *testing.T) {
	in := Checkpoint{Epoch: 9, Base: 8, Data: []byte("payload")}
	e := cdr.NewEncoder(64)
	in.MarshalCDR(e)
	var out Checkpoint
	d := cdr.NewDecoder(e.Bytes())
	if err := out.UnmarshalCDR(d); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != in.Epoch || out.Base != in.Base || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("roundtrip = %+v, want %+v", out, in)
	}
}

// TestMemStoreMaterializesDelta: a delta that keeps the length patches the
// stored buffer in place and one that changes it replaces the buffer;
// either way what an earlier Get handed out is untouched, and a delta
// rejected at its last segment leaves the stored state as it was.
func TestMemStoreMaterializesDelta(t *testing.T) {
	ctx := context.Background()
	s := NewMemStore()
	base := []byte("state-version-one---------------")
	next := []byte("state-version-TWO---------------")
	longer := []byte("state-version-TWO---------------+three")

	if err := s.Put(ctx, "k", Full(1, base)); err != nil {
		t.Fatal(err)
	}
	before, err := s.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	delta := Checkpoint{Epoch: 2, Base: 1, Data: ComputeDelta(base, next)}
	if err := s.Put(ctx, "k", delta); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 2 || cp.IsDelta() {
		t.Fatalf("Get = %+v, want materialized full at epoch 2", cp)
	}
	if !bytes.Equal(cp.Data, next) {
		t.Fatalf("materialized state = %q, want %q", cp.Data, next)
	}
	if !bytes.Equal(before.Data, base) {
		t.Fatalf("a checkpoint handed out before the delta now reads %q", before.Data)
	}

	bad := hostileDelta(uint64(len(next)), uint64(len(next)), deltaSeg{0, 4}, deltaSeg{30, 40})
	if err := s.Put(ctx, "k", Checkpoint{Epoch: 3, Base: 2, Data: bad}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("Put(delta with a segment out of range) = %v, want ErrCorruptCheckpoint", err)
	}
	if cp, err := s.Get(ctx, "k"); err != nil || cp.Epoch != 2 || !bytes.Equal(cp.Data, next) {
		t.Fatalf("state after the rejected delta = %q at epoch %d, %v", cp.Data, cp.Epoch, err)
	}

	if err := s.Put(ctx, "k", Checkpoint{Epoch: 3, Base: 2, Data: ComputeDelta(next, longer)}); err != nil {
		t.Fatal(err)
	}
	if cp, err := s.Get(ctx, "k"); err != nil || !bytes.Equal(cp.Data, longer) {
		t.Fatalf("state after a growing delta = %q, %v; want %q", cp.Data, err, longer)
	}
}

func TestMemStoreRejectsBadBaseDelta(t *testing.T) {
	ctx := context.Background()
	s := NewMemStore()
	if err := s.Put(ctx, "k", Full(1, []byte("one"))); err != nil {
		t.Fatal(err)
	}
	// Delta claims base epoch 5; the store holds epoch 1.
	bad := Checkpoint{Epoch: 6, Base: 5, Data: ComputeDelta([]byte("xxx"), []byte("yyy"))}
	if err := s.Put(ctx, "k", bad); !errors.Is(err, ErrBadBase) {
		t.Fatalf("Put(bad base) = %v, want ErrBadBase", err)
	}
	// The stored state is untouched.
	cp, err := s.Get(ctx, "k")
	if err != nil || cp.Epoch != 1 || string(cp.Data) != "one" {
		t.Fatalf("state after rejected delta = %+v, %v", cp, err)
	}
}

// serveBenchStates activates n wrapped 64-float vector servants, each on a
// server ORB of its own, and returns a client ORB, the servants, their
// references and their ORBs (to crash one). One element moves per bump, so
// their checkpoints ship as deltas.
func serveBenchStates(t *testing.T, n int) (*orb.ORB, []*benchState, []orb.ObjectRef, []*orb.ORB) {
	t.Helper()
	states := make([]*benchState, n)
	refs := make([]orb.ObjectRef, n)
	srvs := make([]*orb.ORB, n)
	for i := range states {
		srvs[i] = orb.New(orb.Options{Name: "state-srv"})
		t.Cleanup(srvs[i].Shutdown)
		ad, err := srvs[i].NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		states[i] = newBenchState(64)
		refs[i] = ad.Activate("state", Wrap(states[i]))
	}
	cli := orb.New(orb.Options{Name: "state-cli"})
	t.Cleanup(cli.Shutdown)
	return cli, states, refs, srvs
}

// bump calls bump(i) through p and returns the servant's call count.
func bump(p *Proxy, i int64) (int64, error) {
	var n int64
	err := p.Call(context.Background(), "bump", encodeInt64Arg(i),
		func(d *cdr.Decoder) error { n = d.GetInt64(); return d.Err() })
	return n, err
}

// TestDeltaBadBaseFallsBackToFull rejects a delta Put with ErrBadBase and
// checks the proxy re-sends the same epoch as a full snapshot, so one
// stale replica never wedges checkpointing.
func TestDeltaBadBaseFallsBackToFull(t *testing.T) {
	cli, _, refs, _ := serveBenchStates(t, 1)
	rec := &recordingStore{inner: NewMemStore()}
	rejectOnce := true
	rec.failPut = func(cp Checkpoint) error {
		if cp.IsDelta() && rejectOnce {
			rejectOnce = false
			return ErrBadBase
		}
		return nil
	}
	p, err := NewProxy(context.Background(), cli, naming.NewName("delta"),
		&benchResolver{ref: refs[0]}, rec, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if _, err := bump(p, i); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Checkpoints != 3 || st.CheckpointFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DeltaCheckpoints == 0 {
		t.Fatalf("no delta checkpoints produced: %+v", st)
	}
	// History: the rejected delta is immediately followed by a full
	// snapshot at the same epoch.
	var sawFallback bool
	hist := rec.history()
	for i := 0; i+1 < len(hist); i++ {
		if hist[i].IsDelta() && !hist[i+1].IsDelta() && hist[i].Epoch == hist[i+1].Epoch {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatalf("no delta→full fallback in put history: %+v", hist)
	}
	cp, err := rec.Get(context.Background(), "delta")
	if err != nil || cp.Epoch != 3 {
		t.Fatalf("final store state = %+v, %v", cp, err)
	}
}

// TestDeltaRestoreEquivalence runs a call sequence with every third
// checkpoint put failing on the wire and a server crash mid-sequence, and
// checks the outcome against arithmetic: deltas are an encoding, never a
// semantic fork. Call 6's put is the one lost before the crash, so its
// effect is the one the recovered server rewinds past (the documented cost
// of a failed put without StrictCheckpoint); every other call is applied
// exactly once.
func TestDeltaRestoreEquivalence(t *testing.T) {
	cli, states, refs, srvs := serveBenchStates(t, 2)
	rec := &recordingStore{inner: NewMemStore()}
	puts := 0
	rec.failPut = func(Checkpoint) error {
		if puts++; puts%3 == 0 {
			return errors.New("injected: checkpoint transport corrupted")
		}
		return nil
	}
	name := naming.NewName("equivalence")
	p, err := NewProxy(context.Background(), cli, name, &nextResolver{refs: refs}, rec, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := newBenchState(64)
	var last int64
	for call := int64(1); call <= 10; call++ {
		if call == 7 {
			srvs[0].Shutdown()
		}
		if last, err = bump(p, call); err != nil {
			t.Fatal(err)
		}
		if call != 6 {
			want.vec[call]++
			want.n++
		}
	}
	if last != 9 {
		t.Fatalf("the last call returned %d, want 9: ten calls, one rewound", last)
	}
	if st := p.Stats(); st.Recoveries != 1 || st.DeltaCheckpoints == 0 || st.Checkpoints != 7 || st.CheckpointFailures != 3 {
		t.Fatalf("stats = %+v, want 1 recovery, 7 checkpoints and 3 failures, some of them deltas", st)
	}
	wantState, _ := want.Checkpoint()
	live, _ := states[1].Checkpoint()
	cp, err := rec.Get(context.Background(), name.String())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, wantState) || !bytes.Equal(cp.Data, wantState) {
		t.Fatalf("recovered servant holds the expected state: %v; the store does: %v", bytes.Equal(live, wantState), bytes.Equal(cp.Data, wantState))
	}
}

// TestStaleEpochNeverBecomesADeltaBase: two proxies write one key, each in
// front of its own servant. A checkpoints twice; B, built afterwards,
// adopts epoch 2 and writes epoch 3; A's next put, at its own epoch 3,
// comes back stale. A's put after that must not be a delta against its
// stale epoch 3 — the store would apply it to B's epoch 3 and hold a state
// neither servant ever had. After every step the store holds one
// servant's own state.
func TestStaleEpochNeverBecomesADeltaBase(t *testing.T) {
	cli, states, refs, _ := serveBenchStates(t, 2)
	store := NewMemStore()
	name := naming.NewName("shared")
	newProxy := func(ref orb.ObjectRef) *Proxy {
		p, err := NewProxy(context.Background(), cli, name, &benchResolver{ref: ref}, store, Policy{CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	holds := func(step string, want int) {
		t.Helper()
		cp, err := store.Get(context.Background(), name.String())
		if err != nil {
			t.Fatal(err)
		}
		mine, _ := states[want].Checkpoint()
		other, _ := states[1-want].Checkpoint()
		switch {
		case bytes.Equal(cp.Data, mine):
		case bytes.Equal(cp.Data, other):
			t.Fatalf("after %s: the store holds the other servant's state", step)
		default:
			t.Fatalf("after %s: the store holds a state neither servant ever had", step)
		}
	}
	a := newProxy(refs[0])
	for i := int64(1); i <= 2; i++ {
		if _, err := bump(a, i); err != nil {
			t.Fatal(err)
		}
		holds("A's checkpoint", 0)
	}
	b := newProxy(refs[1])
	if _, err := bump(b, 10); err != nil {
		t.Fatal(err)
	}
	holds("B's checkpoint at epoch 3", 1)
	if _, err := bump(a, 3); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.CheckpointFailures != 1 {
		t.Fatalf("A's put at epoch 3 was not refused as stale: %+v", st)
	}
	holds("A's stale put", 1)
	if _, err := bump(a, 4); err != nil {
		t.Fatal(err)
	}
	holds("A's put after the stale one", 0)
}

// gateStore holds the put of epoch 2 until the put of epoch 3 has arrived,
// and that one until epoch 2's is done: two puts in flight at once, stored
// in epoch order. It records which epochs arrived as deltas.
type gateStore struct {
	Store
	entered2, entered3, done2 chan struct{}

	mu    sync.Mutex
	delta map[uint64]bool
}

func (g *gateStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	g.mu.Lock()
	g.delta[cp.Epoch] = cp.IsDelta()
	g.mu.Unlock()
	switch cp.Epoch {
	case 2:
		close(g.entered2)
		<-g.entered3
		defer close(g.done2)
	case 3:
		close(g.entered3)
		<-g.done2
	}
	return g.Store.Put(ctx, key, cp)
}

// TestUnackedPutIsNeverADeltaBase: with the put of epoch 2 still in flight,
// epoch 3 ships full, not as a delta against a state the store may never
// hold; once both are stored, the store holds the servant's state.
func TestUnackedPutIsNeverADeltaBase(t *testing.T) {
	cli, states, refs, _ := serveBenchStates(t, 1)
	g := &gateStore{Store: NewMemStore(), delta: map[uint64]bool{},
		entered2: make(chan struct{}), entered3: make(chan struct{}), done2: make(chan struct{})}
	name := naming.NewName("inflight")
	p, err := NewProxy(context.Background(), cli, name, &benchResolver{ref: refs[0]}, g, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bump(p, 1); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := bump(p, 2)
		first <- err
	}()
	<-g.entered2
	if _, err := bump(p, 3); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if !g.delta[2] || g.delta[3] {
		t.Fatalf("epoch 2 as delta: %v, epoch 3 as delta: %v; want a delta on the acked epoch 1, then a full state", g.delta[2], g.delta[3])
	}
	cp, err := g.Get(context.Background(), name.String())
	if err != nil {
		t.Fatal(err)
	}
	live, _ := states[0].Checkpoint()
	if st := p.Stats(); cp.Epoch != 3 || !bytes.Equal(cp.Data, live) || st.CheckpointFailures != 0 {
		t.Fatalf("store holds epoch %d, the servant's state: %v; stats %+v", cp.Epoch, bytes.Equal(cp.Data, live), st)
	}
}

// TestSeedDoesNotAliasCallerState: Seed's state becomes the proxy's delta
// base, and the caller keeps its buffer — the elastic manager seeds every
// worker from one. A caller that then overwrites the buffer, here with
// exactly the state the next call produces, must not change what the proxy
// holds as its base: after each following call the store holds the
// servant's state, not the seed nor a mix of the two.
func TestSeedDoesNotAliasCallerState(t *testing.T) {
	ctx := context.Background()
	cli, states, refs, _ := serveBenchStates(t, 1)
	store := NewMemStore()
	name := naming.NewName("seeded")
	p, err := NewProxy(ctx, cli, name, &benchResolver{ref: refs[0]}, store, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := newBenchState(64).Checkpoint()
	if err := p.Seed(ctx, buf); err != nil {
		t.Fatal(err)
	}
	next := newBenchState(64)
	next.vec[5], next.n = 1, 1
	produced, _ := next.Checkpoint()
	copy(buf, produced)
	for i := int64(5); i < 8; i++ {
		if _, err := bump(p, i); err != nil {
			t.Fatal(err)
		}
		cp, err := store.Get(ctx, name.String())
		if err != nil {
			t.Fatal(err)
		}
		if live, _ := states[0].Checkpoint(); !bytes.Equal(cp.Data, live) {
			t.Fatalf("after bump(%d) the store holds a state the servant never had", i)
		}
	}
}
