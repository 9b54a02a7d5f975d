package orb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// raceEnabled is set in race_test.go: under the race detector sync.Pool
// drops a quarter of what it is given, so nothing that counts recycled
// buffers holds there; those tests still run for the races they may show.
var raceEnabled bool

// bulkServant is the benchmarks' echo servant plus "late": an echo that
// answers only once its caller has given up. It announces the dispatch on
// started, waits for the request's context to end and then replies into
// the void.
type bulkServant struct {
	benchEchoServant
	started chan struct{}
}

func (s *bulkServant) Invoke(sctx *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op == "late" {
		s.started <- struct{}{}
		<-sctx.Context().Done()
		op = "echo"
	}
	return s.benchEchoServant.Invoke(sctx, op, in, out)
}

// newBulkPair wires a client ORB and a server ORB with a bulkServant over
// loopback TCP.
func newBulkPair(t *testing.T) (cli, srv *ORB, ref ObjectRef, sv *bulkServant) {
	t.Helper()
	srv = New(Options{Name: "bulk-srv"})
	t.Cleanup(srv.Shutdown)
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv = &bulkServant{started: make(chan struct{}, 1)}
	cli = New(Options{Name: "bulk-cli"})
	t.Cleanup(cli.Shutdown)
	return cli, srv, ad.Activate("bulk", sv), sv
}

// bitPatterns are the float64s a path that touched values instead of bits
// would change: NaNs with payloads, signed zeros, denormals.
var bitPatterns = []uint64{
	0, 1 << 63, // ±0
	0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, // NaNs: quiet, signalling, negative with payload
	1, 0x000fffffffffffff, 0x800fffffffffffff, // denormals
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
}

func awkwardFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if i < len(bitPatterns) || rng.Intn(8) == 0 {
			v[i] = math.Float64frombits(bitPatterns[(i+rng.Intn(2))%len(bitPatterns)])
		} else {
			v[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values came back, %d went out", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d came back as %#016x, went out as %#016x",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestEchoSizeSweepBitExact sends float64 sequences around every size at
// which the data path changes course — empty, one element, either side of
// the 64 KiB read window, 800 KB that a grown window still holds, 1 MiB
// and 2 MiB beyond the retention limit — through a real ORB pair,
// synchronously and through the DII, and expects every bit back. The
// fragmented runs lower giop.FragmentSize so that the same sizes straddle
// fragment boundaries inside the prefix, at the window size and in
// mid-body.
func TestEchoSizeSweepBitExact(t *testing.T) {
	sizes := []int{0, 1, 8191, 8192, 8193, 100000, 131072, 262144}
	for _, frag := range []int{0, 64 << 10, 4096, 40} {
		name := "unfragmented"
		if frag > 0 {
			name = fmt.Sprint("fragment", frag)
		}
		t.Run(name, func(t *testing.T) {
			if frag > 0 {
				old := giop.FragmentSize
				giop.FragmentSize = frag
				// Registered before the ORBs exist, so it runs after they
				// have shut down and nothing reads the variable any more.
				t.Cleanup(func() { giop.FragmentSize = old })
			}
			cli, _, ref, _ := newBulkPair(t)
			rng := rand.New(rand.NewSource(int64(frag) + 1))
			ctx := context.Background()
			for round := 0; round < 2; round++ { // the second round meets warm pools
				for _, n := range sizes {
					if frag == 40 && n > 8193 {
						continue // tens of thousands of 40-byte fragments prove nothing more
					}
					args := awkwardFloats(rng, n)
					writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }
					var out []float64
					readReply := func(d *cdr.Decoder) error { out = d.GetFloat64Seq(); return d.Err() }

					if err := cli.Call(ctx, ref, "echo", writeArgs, readReply); err != nil {
						t.Fatalf("%d floats, synchronous: %v", n, err)
					}
					sameBits(t, fmt.Sprintf("%d floats, synchronous", n), out, args)

					req := cli.CreateRequest(ctx, ref, "echo")
					req.Args().PutFloat64Seq(args)
					req.Send()
					for again := 0; again < 2; again++ { // a DII reply may be decoded more than once
						out = nil
						if err := req.GetResponse(readReply); err != nil {
							t.Fatalf("%d floats, DII: %v", n, err)
						}
						sameBits(t, fmt.Sprintf("%d floats, DII, decode %d", n, again), out, args)
					}
				}
			}
		})
	}
}

// windowLimit is how many windows a test may see allocated over n
// operations that should recycle the ones they have. It is not zero: a
// sync.Pool forgets what sat unused through two collections, so a window
// in excess of the moment's need is dropped now and then and allocated
// again at the next peak. A window leaked or allocated per operation shows
// as n or more.
func windowLimit(n int) uint64 {
	if raceEnabled {
		return ^uint64(0) // the pools drop a quarter of all puts there: the count means nothing
	}
	return uint64(n/10 + 2)
}

// TestBulkCallsRecycleWindows: once a connection has its windows, 64 KiB
// calls whose replies are released go round the same few, on either end.
// And although both ends now read through a FrameReader, FramesRead and
// FrameReads stay what they were: the reactor's.
func TestBulkCallsRecycleWindows(t *testing.T) {
	cli, srv, ref, _ := newBulkPair(t)
	args := awkwardFloats(rand.New(rand.NewSource(4)), 8192)
	var out []float64
	call := func() {
		if err := cli.Call(context.Background(), ref, "echo",
			func(e *cdr.Encoder) { e.PutFloat64Seq(args) },
			func(d *cdr.Decoder) error { out = d.GetFloat64Seq(); return d.Err() }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		call()
	}
	const calls = 300
	before := giop.WindowAllocs()
	for i := 0; i < calls; i++ {
		call()
	}
	sameBits(t, "last echo", out, args)
	if grew := giop.WindowAllocs() - before; grew > windowLimit(calls) {
		t.Fatalf("%d read windows allocated over %d calls on one warm connection, want at most %d",
			grew, calls, windowLimit(calls))
	}
	if st := cli.Stats(); st.FramesRead != 0 || st.FrameReads != 0 || st.RepliesReceived != calls+20 {
		t.Fatalf("client ORB: %d frames in %d reads counted, %d replies; want none, none and %d",
			st.FramesRead, st.FrameReads, st.RepliesReceived, calls+20)
	}
	if st := srv.Stats(); st.FramesRead != calls+20 || st.FrameReads < st.FramesRead {
		t.Fatalf("server ORB: %d frames in %d reads, want %d frames of several reads each",
			st.FramesRead, st.FrameReads, calls+20)
	}
}

// TestAbandonedReplyIsReleasedByReader: a call is cancelled, and the
// server answers it all the same with a 64 KiB reply nobody waits for. The
// client's read loop must release that reply itself; a reply left
// unreleased pins its window, and the loop would need a new one for every
// such call.
func TestAbandonedReplyIsReleasedByReader(t *testing.T) {
	cli, srv, ref, sv := newBulkPair(t)
	args := awkwardFloats(rand.New(rand.NewSource(5)), 8192)
	writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }
	var out []float64
	readReply := func(d *cdr.Decoder) error { out = d.GetFloat64Seq(); return d.Err() }
	round := func() {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- cli.Call(ctx, ref, "late", writeArgs, readReply) }()
		<-sv.started
		cancel()
		if err := <-errc; !IsSystemException(err, ExCancelled) {
			t.Fatalf("cancelled call returned %v, want CANCELLED", err)
		}
		// The cancel crosses the wire, the servant returns and its reply is
		// written; the echo behind it on the same connection proves the
		// read loop has been past the orphan.
		waitStats(t, srv, func(st Stats) bool { return st.InFlight == 0 })
		if err := cli.Call(context.Background(), ref, "echo", writeArgs, readReply); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "echo after an abandoned reply", out, args)
	}
	for i := 0; i < 5; i++ {
		round()
	}
	const rounds = 40
	before := giop.WindowAllocs()
	for i := 0; i < rounds; i++ {
		round()
	}
	if grew := giop.WindowAllocs() - before; grew > windowLimit(rounds) {
		t.Fatalf("%d read windows allocated over %d abandoned replies, want at most %d",
			grew, rounds, windowLimit(rounds))
	}
	if st := cli.Stats(); st.CancelsSent < rounds {
		t.Fatalf("%d cancels sent, want at least %d", st.CancelsSent, rounds)
	}
}

// TestEchoAllocationCeiling is the hard ceiling on what a call allocates,
// from the allocator's own counters over a few hundred calls, no timing:
// a 64 KiB echo costs at most three times its payload in bytes (what
// remains are the two decoded []float64 the API returns) and 12 objects, a
// 128 B echo at most 7 objects, both ends of the call included.
func TestEchoAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it is given under the race detector")
	}
	for _, c := range []struct {
		floats     int
		maxObjects float64
		maxBytes   float64
	}{
		{16, 7, 1024},
		{8192, 12, 3 * 8 * 8192},
	} {
		cli, _, ref, _ := newBulkPair(t)
		args := make([]float64, c.floats)
		var out []float64
		writeArgs := func(e *cdr.Encoder) { e.PutFloat64Seq(args) }
		readReply := func(d *cdr.Decoder) error { out = d.GetFloat64Seq(); return d.Err() }
		call := func() {
			if err := cli.Call(context.Background(), ref, "echo", writeArgs, readReply); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			call()
		}
		const calls = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / calls
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
		t.Logf("%d floats: %.2f objects, %.0f bytes per call", c.floats, objects, bytes)
		if objects > c.maxObjects || bytes > c.maxBytes {
			t.Errorf("%d float echo allocates %.2f objects and %.0f bytes per call, ceiling %v objects and %v bytes",
				c.floats, objects, bytes, c.maxObjects, c.maxBytes)
		}
		if len(out) != c.floats {
			t.Fatalf("echo returned %d values, want %d", len(out), c.floats)
		}
	}
}
