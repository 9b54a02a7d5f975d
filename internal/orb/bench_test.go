package orb

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/obs"
)

// echoServant returns its float64 sequence argument unchanged — a minimal
// marshal-heavy operation for data-path microbenchmarks.
type benchEchoServant struct{}

func (benchEchoServant) TypeID() string { return "IDL:repro/Echo:1.0" }

func (benchEchoServant) Invoke(_ *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "echo":
		v := in.GetFloat64Seq()
		if err := in.Err(); err != nil {
			return &SystemException{Kind: ExMarshal, Detail: err.Error()}
		}
		out.PutFloat64Seq(v)
		return nil
	case "note":
		_ = in.GetFloat64Seq()
		return in.Err()
	default:
		return BadOperation(op)
	}
}

// newBenchWorld wires a client and a server ORB over loopback TCP with an
// echo servant activated.
func newBenchWorld(b *testing.B, clientOpts Options) (*ORB, ObjectRef) {
	return newBenchWorldOpts(b, clientOpts, Options{Name: "bench-srv"})
}

func newBenchWorldOpts(b *testing.B, clientOpts, srvOpts Options) (*ORB, ObjectRef) {
	b.Helper()
	srv := New(srvOpts)
	b.Cleanup(srv.Shutdown)
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ref := ad.Activate("echo", benchEchoServant{})
	clientOpts.Name = "bench-cli"
	cli := New(clientOpts)
	b.Cleanup(cli.Shutdown)
	return cli, ref
}

// BenchmarkCallPath measures the synchronous invocation hot path end to
// end (marshal, wire round trip, unmarshal) over loopback TCP;
// TestEchoAllocationCeiling pins its allocations deterministically.
func BenchmarkCallPath(b *testing.B) {
	args := make([]float64, 16)
	for i := range args {
		args[i] = float64(i)
	}
	writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }

	b.Run("sync", func(b *testing.B) {
		cli, ref := newBenchWorld(b, Options{})
		ctx := context.Background()
		var out []float64
		readReply := func(d *cdr.Decoder) error {
			out = d.GetFloat64Seq()
			return d.Err()
		}
		// Warm the connection so the dial is not measured.
		if err := cli.Call(ctx, ref, "echo", writeArgs, readReply); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cli.Call(ctx, ref, "echo", writeArgs, readReply); err != nil {
				b.Fatal(err)
			}
		}
		_ = out
	})

	b.Run("oneway", func(b *testing.B) {
		cli, ref := newBenchWorld(b, Options{})
		ctx := context.Background()
		if err := cli.Notify(ctx, ref, "note", writeArgs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cli.Notify(ctx, ref, "note", writeArgs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSyncCall measures concurrent synchronous calls end to end
// over loopback TCP — the reactor's design point: pipelined requests let
// the server drain multiple frames per read syscall, so per-call cost
// amortizes well below the serial round-trip floor.
func BenchmarkSyncCall(b *testing.B) {
	cli, ref := newBenchWorldOpts(b,
		Options{},
		Options{Name: "bench-srv"})
	ctx := context.Background()
	args := []float64{1, 2, 3, 4}
	writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }
	if err := cli.Call(ctx, ref, "echo", writeArgs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var out []float64
		readReply := func(d *cdr.Decoder) error {
			out = d.GetFloat64Seq()
			return d.Err()
		}
		for pb.Next() {
			if err := cli.Call(ctx, ref, "echo", writeArgs, readReply); err != nil {
				b.Error(err)
				return
			}
		}
		_ = out
	})
}

// BenchmarkSyncCallObserved is BenchmarkSyncCall with the full signal
// plane attached: tracing interceptor (head sampling off, so the fast
// path is measured), ORB stats exported, queue-wait/service histograms
// live and both ORBs feeding one flight recorder. The budget for this
// path is ≤2 allocs/op over BenchmarkSyncCall — observability
// must not tax the data path it observes.
func BenchmarkSyncCallObserved(b *testing.B) {
	srv := New(Options{Name: "bench-srv"})
	b.Cleanup(srv.Shutdown)
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ref := ad.Activate("echo", benchEchoServant{})
	cli := New(Options{Name: "bench-cli"})
	b.Cleanup(cli.Shutdown)

	ob := obs.NewObserverOpts("bench", obs.ObserverOptions{Sample: obs.SampleNone})
	cli.AddCallInterceptor(ob)
	srv.AddCallInterceptor(ob)
	srv.ExportStats(ob.Registry)
	srv.AttachFlightRecorder(ob.Flight)
	cli.AttachFlightRecorder(ob.Flight)

	ctx := context.Background()
	args := []float64{1, 2, 3, 4}
	writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }
	if err := cli.Call(ctx, ref, "echo", writeArgs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var out []float64
		readReply := func(d *cdr.Decoder) error {
			out = d.GetFloat64Seq()
			return d.Err()
		}
		for pb.Next() {
			if err := cli.Call(ctx, ref, "echo", writeArgs, readReply); err != nil {
				b.Error(err)
				return
			}
		}
		_ = out
	})
}

// BenchmarkSyncCallQoS is BenchmarkSyncCall with the QoS plane engaged
// on both sides: every call is stamped with a priority class and a
// tenant id (one SCQoS service context per request), the server decodes
// it at admission, runs the tenant token bucket and routes through the
// per-class weighted queues. The client folds its options once and uses
// CallOpts per call — the pattern of every long-lived stamped caller
// (naming.Client.SetCallOptions). The budget for this
// path is ≤2 allocs/op over BenchmarkSyncCallObserved — admission
// control must not tax the calls it admits.
func BenchmarkSyncCallQoS(b *testing.B) {
	cli, ref := newBenchWorldOpts(b,
		Options{},
		Options{Name: "bench-srv", QoS: QoSOptions{TenantRate: 1e9}})
	ctx := context.Background()
	args := []float64{1, 2, 3, 4}
	writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }
	qos := NewCallOptions(WithPriority(ClassNormal), WithTenant("bench-tenant"))
	if err := cli.CallOpts(ctx, ref, "echo", writeArgs, nil, qos); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var out []float64
		readReply := func(d *cdr.Decoder) error {
			out = d.GetFloat64Seq()
			return d.Err()
		}
		for pb.Next() {
			if err := cli.CallOpts(ctx, ref, "echo", writeArgs, readReply, qos); err != nil {
				b.Error(err)
				return
			}
		}
		_ = out
	})
}

// loopReader replays one wire frame forever, so a FrameReader sees an
// endless pipelined stream without any socket in the way.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkOnewayDispatch measures the server-side oneway path in
// isolation — frame ingest through the FrameReader plus servant dispatch,
// no socket: this is the reactor's zero-allocation steady state
// (0 allocs/op).
func BenchmarkOnewayDispatch(b *testing.B) {
	srv := New(Options{Name: "bench-dispatch"})
	b.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	a.Activate("echo", benchEchoServant{})

	body := cdr.NewEncoder(8)
	body.PutFloat64Seq(nil)
	var wire bytes.Buffer
	if err := giop.Write(&wire, &giop.Message{
		Type:      giop.MsgRequest,
		RequestID: 1,
		ObjectKey: "echo",
		Operation: "note",
		Body:      body.Bytes(),
	}); err != nil {
		b.Fatal(err)
	}

	fr := giop.NewFrameReader(&loopReader{data: wire.Bytes()}, giop.FrameReaderConfig{})
	defer fr.Close()
	batch := make([]*giop.Message, 32)
	t := &dispatchTask{a: a, rctx: context.Background()}

	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n, err := fr.ReadBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range batch[:n] {
			a.dispatchOneway(t, "bench", m, &t.sctx)
			m.Release()
			done++
		}
	}
}
