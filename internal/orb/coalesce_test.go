package orb

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
)

// slowDialer delays every dial so concurrent getConn callers genuinely
// overlap with the in-flight dial.
type slowDialer struct {
	delay time.Duration
	d     net.Dialer
}

func (s *slowDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	time.Sleep(s.delay)
	return s.d.DialContext(ctx, network, addr)
}

// seqServant counts invocations and echoes the int64 argument.
type seqServant struct {
	calls atomic.Int64
}

func (s *seqServant) TypeID() string { return "IDL:repro/Seq:1.0" }

func (s *seqServant) Invoke(_ *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "echo":
		v := in.GetInt64()
		if err := in.Err(); err != nil {
			return &SystemException{Kind: ExMarshal, Detail: err.Error()}
		}
		s.calls.Add(1)
		out.PutInt64(v)
		return nil
	case "note":
		_ = in.GetInt64()
		s.calls.Add(1)
		return in.Err()
	default:
		return BadOperation(op)
	}
}

// TestDialSingleflight launches many concurrent first calls to one
// address: exactly one TCP connection must be dialed, with every other
// caller coalescing onto the in-flight dial.
func TestDialSingleflight(t *testing.T) {
	srv := New(Options{Name: "sf-srv"})
	defer srv.Shutdown()
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := ad.Activate("seq", &seqServant{})

	cli := New(Options{Name: "sf-cli", Dialer: &slowDialer{delay: 50 * time.Millisecond}})
	defer cli.Shutdown()

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cli.Call(context.Background(), ref, "echo",
				func(e *cdr.Encoder) { e.PutInt64(int64(i)) },
				func(d *cdr.Decoder) error { _ = d.GetInt64(); return d.Err() })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	st := cli.Stats()
	if st.ConnectionsDialed != 1 {
		t.Fatalf("ConnectionsDialed = %d, want 1", st.ConnectionsDialed)
	}
	if st.DialsCoalesced < callers-1 {
		t.Fatalf("DialsCoalesced = %d, want >= %d", st.DialsCoalesced, callers-1)
	}
}

// TestMixedOnewayAndSyncOrdering mixes a oneway storm with synchronous
// calls on one connection: every sync reply must match its own request
// (no cross-wiring between interleaved writes) and every oneway must
// arrive. Run with -race this also hammers the connection's write lock
// against concurrent senders.
func TestMixedOnewayAndSyncOrdering(t *testing.T) {
	srv := New(Options{Name: "co-srv"})
	defer srv.Shutdown()
	ad, err := srv.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := &seqServant{}
	ref := ad.Activate("seq", sv)

	cli := New(Options{Name: "co-cli"})
	defer cli.Shutdown()
	ctx := context.Background()

	const (
		notifiers = 4
		perWorker = 50
		syncCalls = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < notifiers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := cli.Notify(ctx, ref, "note",
					func(e *cdr.Encoder) { e.PutInt64(int64(i)) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	var mismatch atomic.Int64
	go func() {
		defer wg.Done()
		for i := 0; i < syncCalls; i++ {
			want := int64(i * 31)
			var got int64
			if err := cli.Call(ctx, ref, "echo",
				func(e *cdr.Encoder) { e.PutInt64(want) },
				func(d *cdr.Decoder) error { got = d.GetInt64(); return d.Err() }); err != nil {
				t.Error(err)
				return
			}
			if got != want {
				mismatch.Add(1)
			}
		}
	}()
	wg.Wait()
	if n := mismatch.Load(); n != 0 {
		t.Fatalf("%d sync replies did not match their requests", n)
	}

	// Every oneway eventually lands (the servant may still be working
	// through them when the last sync reply returns).
	deadline := time.Now().Add(5 * time.Second)
	total := int64(notifiers*perWorker + syncCalls)
	for sv.calls.Load() != total {
		if time.Now().After(deadline) {
			t.Fatalf("servant saw %d calls, want %d", sv.calls.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
}
