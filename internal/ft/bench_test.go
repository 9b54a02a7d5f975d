package ft

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

// benchResolver hands out a fixed reference without a naming service.
type benchResolver struct {
	mu  sync.Mutex
	ref orb.ObjectRef
}

func (r *benchResolver) Resolve(context.Context, naming.Name) (orb.ObjectRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ref, nil
}

// benchState is a checkpointable servant with a vector payload sized like
// a worker warm-start blob; each bump call perturbs one element, so delta
// checkpoints stay small while full snapshots do not.
type benchState struct {
	mu  sync.Mutex
	vec []float64
	n   int64
}

func newBenchState(dim int) *benchState { return &benchState{vec: make([]float64, dim)} }

func (s *benchState) TypeID() string { return "IDL:repro/BenchState:1.0" }

func (s *benchState) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != "bump" {
		return orb.BadOperation(op)
	}
	i := in.GetInt64()
	if err := in.Err(); err != nil {
		return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
	}
	s.mu.Lock()
	s.n++
	s.vec[int(i)%len(s.vec)] += 1
	v := s.n
	s.mu.Unlock()
	out.PutInt64(v)
	return nil
}

func (s *benchState) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(16 + 8*len(s.vec))
	e.PutFloat64Seq(s.vec)
	e.PutInt64(s.n)
	return e.Bytes(), nil
}

func (s *benchState) Restore(data []byte) error {
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

// newBenchProxy wires servant + store service over loopback TCP and
// builds a proxy with the given policy.
func newBenchProxy(b *testing.B, policy Policy) *Proxy {
	b.Helper()
	srv := orb.New(orb.Options{Name: "bench-srv"})
	b.Cleanup(srv.Shutdown)
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ref := ad.Activate("state", Wrap(newBenchState(64)))
	storeRef := ad.Activate(StoreDefaultKey, NewStoreServant(NewMemStore()))

	cli := orb.New(orb.Options{Name: "bench-cli"})
	b.Cleanup(cli.Shutdown)
	store := NewStoreClient(cli, storeRef)

	p, err := NewProxy(context.Background(), cli, naming.NewName("bench"),
		&benchResolver{ref: ref}, store, policy)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkProxyCall measures the fault-tolerant proxy invocation path —
// business call plus checkpoint-after-call — the per-call overhead the
// paper's Table 1 quantifies. Tracked by the PR-level allocation gate.
func BenchmarkProxyCall(b *testing.B) {
	run := func(b *testing.B, policy Policy) {
		p := newBenchProxy(b, policy)
		ctx := context.Background()
		var i int64
		call := func() error {
			return p.Call(ctx, "bump",
				func(e *cdr.Encoder) { e.PutInt64(i) },
				func(d *cdr.Decoder) error { _ = d.GetInt64(); return d.Err() })
		}
		if err := call(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i = 0; i < int64(b.N); i++ {
			if err := call(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := p.Stats(); st.Checkpoints > 0 {
			b.ReportMetric(float64(st.CheckpointBytes)/float64(st.Checkpoints), "ckpt_B/op")
		}
	}

	b.Run("every=1", func(b *testing.B) {
		run(b, Policy{CheckpointEvery: 1})
	})
	b.Run("nockpt", func(b *testing.B) {
		run(b, Policy{CheckpointEvery: 0})
	})
}
