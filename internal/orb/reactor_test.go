package orb

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// TestConcurrentActivateDuringBatchedDispatch hammers servant
// registration while pipelined calls flow through the shared worker pool:
// the adapter's servant table must stay race-free against batched
// dispatch (run with -race). Calls target both a stable key and a
// flapping one; the latter may legally see OBJECT_NOT_EXIST but nothing
// else may go wrong.
func TestConcurrentActivateDuringBatchedDispatch(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{Name: "flap"})

	stop := make(chan struct{})
	var flappers sync.WaitGroup
	flappers.Add(1)
	go func() {
		defer flappers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				a.Activate("flappy", &calcServant{})
			} else {
				a.Deactivate("flappy")
			}
		}
	}()

	flappyRef := ObjectRef{TypeID: "IDL:repro/Calc:1.0", Addr: a.Addr(), Key: "flappy"}
	var callers sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func(g int) {
			defer callers.Done()
			for i := 0; i < 50; i++ {
				if _, err := callAdd(o, ref, int64(g), int64(i)); err != nil {
					errs <- fmt.Errorf("stable key: %w", err)
					return
				}
				_, err := callAdd(o, flappyRef, 1, 2)
				if err != nil && !IsSystemException(err, ExObjectNotExist) {
					errs <- fmt.Errorf("flapping key: %w", err)
					return
				}
			}
		}(g)
	}
	callers.Wait()
	close(stop)
	flappers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestCancelRequestWhileQueued cancels a request that is still waiting
// for a dispatch worker: with a single-worker pool held by a blocking
// call, the queued request's wire-level cancel must find it in the
// inflight table (registered at admission, not at dequeue) and shed it
// without the servant ever running it.
func TestCancelRequestWhileQueued(t *testing.T) {
	o, _, ref, sv := newCtxPair(t, Options{Name: "queued-cancel", WorkerPool: 1})

	// Occupy the only worker.
	blockErr := make(chan error, 1)
	go func() { blockErr <- o.Call(context.Background(), ref, "block", nil, nil) }()
	<-sv.started

	// Queue a second call behind it, then cancel it while queued.
	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- o.Call(ctx, ref, "fast", nil, nil) }()
	waitStats(t, o, func(st Stats) bool { return st.RequestsSent >= 2 })
	cancel()
	if err := <-queuedErr; !IsSystemException(err, ExCancelled) {
		t.Fatalf("queued call err = %v, want CANCELLED", err)
	}
	waitStats(t, o, func(st Stats) bool { return st.CancelsReceived >= 1 })

	// Release the blocker; the cancelled request must never have reached
	// the servant.
	close(sv.release)
	if err := <-blockErr; err != nil {
		t.Fatalf("blocking call: %v", err)
	}
	if n := sv.fast.Load(); n != 0 {
		t.Fatalf("cancelled queued request was dispatched %d times", n)
	}
}

// TestPipelinedReplyOrdering pipelines many concurrent calls over one
// connection and checks every reply against its request: replies written
// by concurrent workers must never cross their payloads.
func TestPipelinedReplyOrdering(t *testing.T) {
	srv := New(Options{Name: "pipeline-srv"})
	t.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Activate("calc", &calcServant{})
	cli := New(Options{Name: "pipeline-cli"})
	t.Cleanup(cli.Shutdown)

	const calls = 256
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sum, err := callAdd(cli, ref, int64(i), int64(i)*1000)
			if err != nil {
				errs <- err
				return
			}
			if want := int64(i) + int64(i)*1000; sum != want {
				errs <- fmt.Errorf("call %d: sum = %d, want %d (reply crossed)", i, sum, want)
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	st := srv.Stats()
	if st.FramesRead < calls {
		t.Fatalf("FramesRead = %d, want >= %d", st.FramesRead, calls)
	}
	if st.FrameReads == 0 || st.FramesPerRead < 1 {
		t.Fatalf("FrameReads = %d FramesPerRead = %v, want reads with ratio >= 1", st.FrameReads, st.FramesPerRead)
	}
	t.Logf("frames/read = %.2f", st.FramesPerRead)
}

// TestOversizeRequestRejectedConnectionSurvives sends a request whose
// body exceeds the server's MaxRequestBody: the server must answer with
// a MARSHAL system exception after draining the frame with bounded reads
// — never buffering it — and the connection must keep working.
func TestOversizeRequestRejectedConnectionSurvives(t *testing.T) {
	srv := New(Options{Name: "cap-srv", MaxRequestBody: 64 << 10})
	t.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Activate("echo", benchEchoServant{})
	cli := New(Options{Name: "cap-cli"})
	t.Cleanup(cli.Shutdown)

	big := make([]float64, 1<<17) // ~1 MiB on the wire
	err = cli.Call(context.Background(), ref, "note",
		func(e *cdr.Encoder) { e.PutFloat64Seq(big) }, nil)
	if !IsSystemException(err, ExMarshal) {
		t.Fatalf("oversize call err = %v, want MARSHAL", err)
	}

	// Same pooled connection must still carry normal traffic.
	small := []float64{1, 2, 3}
	var out []float64
	err = cli.Call(context.Background(), ref, "echo",
		func(e *cdr.Encoder) { e.PutFloat64Seq(small) },
		func(d *cdr.Decoder) error { out = d.GetFloat64Seq(); return d.Err() })
	if err != nil {
		t.Fatalf("follow-up call: %v", err)
	}
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("follow-up echo = %v", out)
	}
	if st := srv.Stats(); st.OversizeRejected != 1 {
		t.Fatalf("OversizeRejected = %d, want 1", st.OversizeRejected)
	}
}

// TestSlowLorisConnectionReaped starts a frame and then stalls: the
// frame-timeout guard must drop the connection. An idle connection that
// never starts a frame stays up — the guard only arms once bytes of an
// incomplete frame are pending.
func TestSlowLorisConnectionReaped(t *testing.T) {
	srv := New(Options{Name: "loris-srv", FrameTimeout: 100 * time.Millisecond})
	t.Cleanup(srv.Shutdown)
	a, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Activate("calc", &calcServant{})

	// Attacker: half a header, then silence.
	loris, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := loris.Write([]byte{'S', 'G', 'O', 'P'}); err != nil {
		t.Fatal(err)
	}

	// Bystander: connects, stays idle past the frame timeout, then issues
	// a request — must still be served.
	idle, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	loris.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.ReadAll(loris); err != nil {
		t.Fatalf("expected server to close the stalled connection cleanly, read err = %v", err)
	}

	if err := giop.Write(idle, &giop.Message{Type: giop.MsgLocateRequest, RequestID: 7, ObjectKey: "calc"}); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	fr := giop.NewFrameReader(idle, giop.FrameReaderConfig{})
	defer fr.Close()
	var batch [1]*giop.Message
	if _, err := fr.ReadBatch(batch[:]); err != nil {
		t.Fatalf("idle connection was reaped: %v", err)
	}
	reply := batch[0]
	defer reply.Release()
	if reply.Type != giop.MsgLocateReply || reply.LocateStatus != giop.LocateObjectHere {
		t.Fatalf("locate reply = %+v", reply)
	}
}
