package ft

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

func TestComputeApplyDeltaRoundtrip(t *testing.T) {
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

	cases := []struct {
		name       string
		base, next []byte
	}{
		{"identical", base512, append([]byte(nil), base512...)},
		{"single-byte", base512, mutate(base512, 100)},
		{"scattered", base512, mutate(base512, 0, 17, 18, 130, 131, 132, 511)},
		{"adjacent-runs", base512, mutate(base512, 10, 11, 12, 20, 21, 22)},
		{"grow", base512, append(append([]byte(nil), base512...), randBytes(64)...)},
		{"shrink", base512, append([]byte(nil), base512[:300]...)},
		{"empty-base", nil, randBytes(32)},
		{"empty-next", base512, []byte{}},
		{"all-different", base512, randBytes(512)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delta := ComputeDelta(tc.base, tc.next)
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

func TestMemStoreMaterializesDelta(t *testing.T) {
	ctx := context.Background()
	s := NewMemStore()
	base := []byte("state-version-one---------------")
	next := []byte("state-version-TWO---------------")

	if err := s.Put(ctx, "k", Full(1, base)); err != nil {
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

// TestDeltaBadBaseFallsBackToFull rejects a delta Put with ErrBadBase and
// checks the proxy re-sends the same epoch as a full snapshot, so one
// stale replica never wedges checkpointing.
func TestDeltaBadBaseFallsBackToFull(t *testing.T) {
	// A counter's 8-byte state never yields a smaller delta, so this test
	// uses the 64-float vector servant (bench fixture): one element moves
	// per call, making deltas genuinely smaller than full snapshots.
	srv := orb.New(orb.Options{Name: "delta-srv"})
	t.Cleanup(srv.Shutdown)
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := ad.Activate("state", Wrap(newBenchState(64)))
	cli := orb.New(orb.Options{Name: "delta-cli"})
	t.Cleanup(cli.Shutdown)

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
		&benchResolver{ref: ref}, rec, Policy{CheckpointEvery: 1, DeltaCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := p.Call(context.Background(), "bump",
			encodeInt64Arg(i), discardInt64Reply); err != nil {
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

// TestDeltaRestoreEquivalence runs the same call sequence through a
// delta proxy and a full-snapshot proxy, with checkpoint Puts failing
// intermittently (transport corruption analogue), and a server crash
// mid-sequence. Both runs must recover to identical servant state:
// delta encoding is an encoding, never a semantic fork.
func TestDeltaRestoreEquivalence(t *testing.T) {
	run := func(policy Policy) (final int64, stored []byte) {
		w := newFTWorld(t)
		rec := &recordingStore{inner: NewMemStore()}
		n := 0
		commFail := errors.New("injected: checkpoint transport corrupted")
		rec.failPut = func(cp Checkpoint) error {
			n++
			if n%3 == 0 { // every 3rd Put dies on the wire
				return commFail
			}
			return nil
		}
		p, err := NewProxy(context.Background(), w.client, w.name, w.naming, rec, policy)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := inc(p, 2); err != nil {
				t.Fatal(err)
			}
		}
		w.adA.Close()
		w.srvA.Shutdown()
		var v int64
		for i := 0; i < 4; i++ {
			if v, err = inc(p, 2); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := rec.Get(context.Background(), w.name.String())
		if err != nil {
			t.Fatal(err)
		}
		return v, cp.Data
	}

	fullV, fullState := run(Policy{CheckpointEvery: 1})
	deltaV, deltaState := run(Policy{CheckpointEvery: 1, DeltaCheckpoint: true})
	if fullV != deltaV {
		t.Fatalf("final value diverged: full=%d delta=%d", fullV, deltaV)
	}
	if !bytes.Equal(fullState, deltaState) {
		t.Fatalf("stored state diverged: full=%x delta=%x", fullState, deltaState)
	}
}
