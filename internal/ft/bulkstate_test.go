package ft

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/naming"
	"repro/internal/orb"
)

// vectorServant holds 64 KiB of state as a float64 vector. set(i, bits)
// stores a bit pattern in element i and returns how many sets it has
// applied, so a lost or doubled call shows in the reply.
type vectorServant struct {
	mu   sync.Mutex
	vec  []float64
	sets int64
}

func (*vectorServant) TypeID() string { return "IDL:repro/Vector:1.0" }

func (s *vectorServant) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != "set" {
		return orb.BadOperation(op)
	}
	i, bits := in.GetInt32(), in.GetUint64()
	if err := in.Err(); err != nil {
		return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vec[i] = math.Float64frombits(bits)
	s.sets++
	out.PutInt64(s.sets)
	return nil
}

func (s *vectorServant) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(16 + 8*len(s.vec))
	e.PutFloat64Seq(s.vec)
	e.PutInt64(s.sets)
	return e.Bytes(), nil
}

func (s *vectorServant) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	vec, sets := d.GetFloat64Seq(), d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.vec, s.sets = vec, sets
	s.mu.Unlock()
	return nil
}

// nextResolver hands out its references in turn, one per Resolve: the
// first to NewProxy, the next to each recovery.
type nextResolver struct {
	mu   sync.Mutex
	refs []orb.ObjectRef
}

func (r *nextResolver) Resolve(context.Context, naming.Name) (orb.ObjectRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref := r.refs[0]
	if len(r.refs) > 1 {
		r.refs = r.refs[1:]
	}
	return ref, nil
}

// TestBulkStateSurvivesCrashBitExact: a CheckpointEvery: 1 proxy in front
// of a servant with 64 KiB of state — every checkpoint a bulk reply
// context, a bulk store request and, at recovery, a bulk restore — loses
// its server and carries on against a spare whose state is, bit for bit
// (NaN payloads, signed zeros and denormals included), what the dead one
// had, plus the replayed call. The deferred path recovers the same way.
func TestBulkStateSurvivesCrashBitExact(t *testing.T) {
	const dim = 8192
	ctx := context.Background()
	serve := func(name string) (*orb.ORB, *vectorServant, orb.ObjectRef) {
		o := orb.New(orb.Options{Name: name})
		t.Cleanup(o.Shutdown)
		ad, err := o.NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sv := &vectorServant{vec: make([]float64, dim)}
		return o, sv, ad.Activate("vec", Wrap(sv))
	}
	srvA, _, refA := serve("srvA")
	srvB, _, refB := serve("srvB")
	_, svC, refC := serve("srvC")

	services := orb.New(orb.Options{Name: "services"})
	t.Cleanup(services.Shutdown)
	svcAd, err := services.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Name: "client"})
	t.Cleanup(client.Shutdown)
	store := NewStoreClient(client, svcAd.Activate(StoreDefaultKey, NewStoreServant(NewMemStore())))
	p, err := NewProxy(ctx, client, naming.NewName("vec"), &nextResolver{refs: []orb.ObjectRef{refA, refB, refC}},
		store, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20))
	patterns := []uint64{0, 1 << 63, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, 1, 0x000fffffffffffff}
	want := make([]uint64, dim)
	var sets int64
	args := func() (int32, uint64) {
		i, bits := int32(rng.Intn(dim)), rng.Uint64()
		if rng.Intn(3) == 0 {
			bits = patterns[rng.Intn(len(patterns))]
		}
		want[i] = bits
		sets++
		return i, bits
	}
	set := func() {
		t.Helper()
		i, bits := args()
		var got int64
		if err := p.Call(ctx, "set",
			func(e *cdr.Encoder) { e.PutInt32(i); e.PutUint64(bits) },
			func(d *cdr.Decoder) error { got = d.GetInt64(); return d.Err() }); err != nil {
			t.Fatal(err)
		}
		if got != sets {
			t.Fatalf("set returned %d, want %d: a call was lost or applied twice", got, sets)
		}
	}
	setDeferred := func() {
		t.Helper()
		i, bits := args()
		req := p.NewRequest(ctx, "set")
		req.Args().PutInt32(i)
		req.Args().PutUint64(bits)
		req.Send()
		var got int64
		if err := req.GetResponse(func(d *cdr.Decoder) error { got = d.GetInt64(); return d.Err() }); err != nil {
			t.Fatal(err)
		}
		if got != sets {
			t.Fatalf("deferred set returned %d, want %d", got, sets)
		}
	}

	for k := 0; k < 40; k++ {
		set()
	}
	srvA.Shutdown() // the crash: the next call finds the connection dead
	for k := 0; k < 10; k++ {
		set()
	}
	srvB.Shutdown()
	setDeferred() // recovers inside GetResponse
	for k := 0; k < 5; k++ {
		setDeferred()
	}

	if st := p.Stats(); st.Recoveries != 2 || st.Replays != 2 || st.CheckpointFailures != 0 || st.Checkpoints != uint64(sets) {
		t.Fatalf("stats = %+v, want 2 recoveries, 2 replays, %d checkpoints, no failure", st, sets)
	}
	svC.mu.Lock()
	defer svC.mu.Unlock()
	if svC.sets != sets {
		t.Fatalf("the last spare has applied %d sets, want %d", svC.sets, sets)
	}
	for i, bits := range want {
		if got := math.Float64bits(svC.vec[i]); got != bits {
			t.Fatalf("recovered state differs at element %d: %#016x, want %#016x", i, got, bits)
		}
	}
	cp, err := store.Get(ctx, "vec")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := (&vectorServant{vec: svC.vec, sets: svC.sets}).Checkpoint()
	if cp.Epoch != uint64(sets) || string(cp.Data) != string(live) {
		t.Fatalf("stored checkpoint (epoch %d, %d bytes) is not the live state (epoch %d, %d bytes)",
			cp.Epoch, len(cp.Data), sets, len(live))
	}
}

// checkMarkedRepliesAreSmall drives 20 set calls on a 64 KiB vector through
// a CheckpointEvery: 1 proxy — deferred, through RequestProxy, when
// deferred is set — and reads every reply's SCCheckpoint context off the
// wire: the first carries the state in full, every later one only the
// element that call changed. The store relays those deltas and ends up
// holding the servant's state.
func checkMarkedRepliesAreSmall(t *testing.T, deferred bool) {
	t.Helper()
	const dim, calls = 8192, 20
	ctx := context.Background()
	var mu sync.Mutex
	var sizes []int
	hook := &clientHook{reply: func(req, reply *giop.Message, _ error) {
		if req.Operation == "set" && reply != nil {
			mu.Lock()
			sizes = append(sizes, len(reply.Context(giop.SCCheckpoint)))
			mu.Unlock()
		}
	}}
	srv := orb.New(orb.Options{Name: "vec-srv"})
	t.Cleanup(srv.Shutdown)
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := &vectorServant{vec: make([]float64, dim)}
	ref := ad.Activate("vec", Wrap(sv))
	cli := orb.New(orb.Options{Name: "vec-cli", CallInterceptors: []orb.CallInterceptor{hook}})
	t.Cleanup(cli.Shutdown)
	store := NewMemStore()
	p, err := NewProxy(ctx, cli, naming.NewName("vec"), &benchResolver{ref: ref}, store, Policy{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < calls; k++ {
		i, bits := int32(k*409%dim), uint64(k+1)
		if deferred {
			req := p.NewRequest(ctx, "set")
			req.Args().PutInt32(i)
			req.Args().PutUint64(bits)
			req.Send()
			err = req.GetResponse(nil)
		} else {
			err = p.Call(ctx, "set", func(e *cdr.Encoder) { e.PutInt32(i); e.PutUint64(bits) }, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(sizes) != calls || sizes[0] < 8*dim {
		t.Fatalf("reply context sizes %v: want %d, the first carrying the whole state", sizes, calls)
	}
	for k, n := range sizes[1:] {
		if n >= 256 {
			t.Fatalf("reply %d carries a %d B checkpoint context after the first call, want < 256 B", k+2, n)
		}
	}
	if st := p.Stats(); st.Checkpoints != calls || st.DeltaCheckpoints != calls-1 || st.CheckpointFailures != 0 {
		t.Fatalf("stats = %+v, want %d checkpoints, all but the first relayed deltas", st, calls)
	}
	cp, err := store.Get(ctx, "vec")
	if err != nil {
		t.Fatal(err)
	}
	if live, _ := sv.Checkpoint(); !bytes.Equal(cp.Data, live) {
		t.Fatal("the store does not hold the servant's state")
	}
}

// TestMarkedRepliesCarryOnlyWhatChanged is the synchronous path.
func TestMarkedRepliesCarryOnlyWhatChanged(t *testing.T) {
	checkMarkedRepliesAreSmall(t, false)
}

// TestRequestProxyRepliesCarryOnlyWhatChanged is the DII path.
func TestRequestProxyRepliesCarryOnlyWhatChanged(t *testing.T) {
	checkMarkedRepliesAreSmall(t, true)
}
