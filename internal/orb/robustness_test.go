package orb

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
)

func TestStatsCounters(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	server := ref // same process hosts the adapter; o is also the client
	_ = server
	for i := 0; i < 3; i++ {
		if _, err := callAdd(o, ref, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Stats()
	if st.RequestsSent != 3 || st.RepliesReceived != 3 {
		t.Fatalf("client counters: %+v", st)
	}
	if st.RequestsServed != 3 {
		t.Fatalf("server counters: %+v", st)
	}
	if st.ConnectionsDialed != 1 || st.ConnectionsAccepted != 1 {
		t.Fatalf("connection counters: %+v", st)
	}
}

func TestStatsCountOneway(t *testing.T) {
	o, _, ref, sv := newTestPair(t, Options{})
	if err := o.Notify(context.Background(), ref, "add", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sv.calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := o.Stats()
	if st.RequestsSent != 1 || st.RepliesReceived != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestServerSurvivesGarbageBytes fires random byte streams at the
// adapter's port: the server must never crash, must drop the hostile
// connections, and must keep serving legitimate clients.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		// Half the probes start with valid magic to exercise deeper
		// parsing paths.
		if i%2 == 0 && n >= 4 {
			copy(buf, giop.Magic[:])
		}
		conn.Write(buf)
		conn.Close()
	}
	// A legitimate call still succeeds.
	if _, err := callAdd(o, ref, 2, 3); err != nil {
		t.Fatalf("server degraded after garbage: %v", err)
	}
}

// TestServerSurvivesHugeDeclaredBody sends a header declaring a massive
// body; the server must reject it without allocating or hanging.
func TestServerSurvivesHugeDeclaredBody(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte{}, giop.Magic[:]...)
	hdr = append(hdr, giop.Version, byte(giop.MsgRequest), 0, 0, 0xff, 0xff, 0xff, 0xff)
	conn.Write(hdr)
	conn.Close()
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatalf("server degraded: %v", err)
	}
}

// TestServerHandlesSlowClient verifies that a stalled half-written
// request does not block other clients (each connection has its own
// reader).
func TestServerHandlesSlowClient(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Write half a header and stall.
	conn.Write(giop.Magic[:2])
	done := make(chan error, 1)
	go func() {
		_, err := callAdd(o, ref, 4, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled client blocked the adapter")
	}
}

// TestServerWorkerCapRespected floods the adapter with slow calls and
// checks the configured dispatch cap is never exceeded.
func TestServerWorkerCapRespected(t *testing.T) {
	o := New(Options{WorkerPool: 2})
	defer o.Shutdown()
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var active, peak atomic.Int64
	sv := &gaugeServant{active: &active, peak: &peak}
	ref := a.Activate("gauge", sv)

	client := New(Options{})
	defer client.Shutdown()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Call(context.Background(), ref, "work", nil, nil)
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrent dispatches = %d, cap 2", got)
	}
}

// gaugeServant tracks concurrent invocations.
type gaugeServant struct {
	active, peak *atomic.Int64
}

func (g *gaugeServant) TypeID() string { return "IDL:repro/Gauge:1.0" }

func (g *gaugeServant) Invoke(_ *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	cur := g.active.Add(1)
	defer g.active.Add(-1)
	for {
		p := g.peak.Load()
		if cur <= p || g.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(10 * time.Millisecond)
	return nil
}

// TestClientRejectsOversizedReply ensures a hostile server cannot make
// the client allocate unbounded memory.
func TestClientRejectsOversizedReply(t *testing.T) {
	// A fake "server" that replies with a huge declared length.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read the request header + body, then reply with garbage length.
		buf := make([]byte, 4096)
		conn.Read(buf)
		evil := append([]byte{}, giop.Magic[:]...)
		evil = append(evil, giop.Version, byte(giop.MsgReply), 0, 0, 0xff, 0xff, 0xff, 0xff)
		conn.Write(evil)
	}()

	o := New(Options{CallTimeout: 5 * time.Second})
	defer o.Shutdown()
	ref := ObjectRef{TypeID: "T", Addr: ln.Addr().String(), Key: "k"}
	err = o.Call(context.Background(), ref, "op", nil, nil)
	if !IsCommFailure(err) && !IsSystemException(err, ExTimeout) {
		t.Fatalf("err = %v", err)
	}
}
