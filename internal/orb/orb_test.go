package orb

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// calcServant is a test servant: add(a,b), div(a,b) raising a user
// exception on b==0, sleep(ms), boom() panicking, state() returning an
// internal counter.
type calcServant struct {
	calls atomic.Int64
}

func (c *calcServant) TypeID() string { return "IDL:repro/Calc:1.0" }

func (c *calcServant) Invoke(ctx *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	c.calls.Add(1)
	switch op {
	case "add":
		a, b := in.GetInt64(), in.GetInt64()
		if err := in.Err(); err != nil {
			return &SystemException{Kind: ExMarshal, Detail: err.Error()}
		}
		out.PutInt64(a + b)
		return nil
	case "div":
		a, b := in.GetFloat64(), in.GetFloat64()
		if b == 0 {
			return &UserException{RepoID: "IDL:repro/DivByZero:1.0", Detail: "division by zero"}
		}
		out.PutFloat64(a / b)
		return nil
	case "sleep":
		ms := in.GetInt64()
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return nil
	case "boom":
		panic("servant exploded")
	case "calls":
		out.PutInt64(c.calls.Load())
		return nil
	default:
		return BadOperation(op)
	}
}

func newTestPair(t *testing.T, opts Options) (*ORB, *Adapter, ObjectRef, *calcServant) {
	t.Helper()
	o := New(opts)
	t.Cleanup(o.Shutdown)
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := &calcServant{}
	ref := a.Activate("calc", sv)
	return o, a, ref, sv
}

func callAdd(o *ORB, ref ObjectRef, a, b int64) (int64, error) {
	var sum int64
	err := o.Call(context.Background(), ref, "add",
		func(e *cdr.Encoder) { e.PutInt64(a); e.PutInt64(b) },
		func(d *cdr.Decoder) error { sum = d.GetInt64(); return d.Err() })
	return sum, err
}

func TestSynchronousInvoke(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{Name: "client"})
	sum, err := callAdd(o, ref, 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestVoidReply(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	if err := o.Call(context.Background(), ref, "sleep", func(e *cdr.Encoder) { e.PutInt64(0) }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserException(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	err := o.Call(context.Background(), ref, "div",
		func(e *cdr.Encoder) { e.PutFloat64(1); e.PutFloat64(0) },
		func(d *cdr.Decoder) error { d.GetFloat64(); return d.Err() })
	var ue *UserException
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UserException", err)
	}
	if ue.RepoID != "IDL:repro/DivByZero:1.0" {
		t.Fatalf("repo id = %q", ue.RepoID)
	}
	if !IsUserException(err, "IDL:repro/DivByZero:1.0") || !IsUserException(err, "") {
		t.Fatal("IsUserException misclassified")
	}
}

func TestBadOperation(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	err := o.Call(context.Background(), ref, "no_such_op", nil, nil)
	if !IsSystemException(err, ExBadOperation) {
		t.Fatalf("err = %v, want BAD_OPERATION", err)
	}
}

func TestObjectNotExist(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	ref.Key = "ghost"
	err := o.Call(context.Background(), ref, "add", func(e *cdr.Encoder) { e.PutInt64(1); e.PutInt64(1) }, nil)
	if !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST", err)
	}
}

func TestDeactivateRaisesObjectNotExist(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	a.Deactivate("calc")
	_, err := callAdd(o, ref, 1, 1)
	if !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST", err)
	}
}

func TestNilReferenceRejected(t *testing.T) {
	o := New(Options{})
	defer o.Shutdown()
	err := o.Call(context.Background(), ObjectRef{}, "op", nil, nil)
	if !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestServantPanicBecomesInternal(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	err := o.Call(context.Background(), ref, "boom", nil, nil)
	if !IsSystemException(err, ExInternal) {
		t.Fatalf("err = %v, want INTERNAL", err)
	}
	// The adapter must survive: a second call still works.
	if _, err := callAdd(o, ref, 1, 2); err != nil {
		t.Fatalf("call after panic: %v", err)
	}
}

func TestCommFailureOnClosedAdapter(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	a.Close()
	_, err := callAdd(o, ref, 1, 1)
	if !IsCommFailure(err) {
		t.Fatalf("err = %v, want COMM_FAILURE", err)
	}
}

func TestCommFailureOnUnreachableAddress(t *testing.T) {
	o := New(Options{DialTimeout: 200 * time.Millisecond})
	defer o.Shutdown()
	ref := ObjectRef{TypeID: "x", Addr: "127.0.0.1:1", Key: "k"}
	err := o.Call(context.Background(), ref, "op", nil, nil)
	if !IsCommFailure(err) {
		t.Fatalf("err = %v, want COMM_FAILURE", err)
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	a.Close()
	if _, err := callAdd(o, ref, 1, 1); !IsCommFailure(err) {
		t.Fatalf("expected COMM_FAILURE, got %v", err)
	}
	// Restart on the same port and verify the pool re-dials.
	a2, err := o.NewAdapter(addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer a2.Close()
	a2.Activate("calc", &calcServant{})
	if _, err := callAdd(o, ref, 2, 3); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

// recordDeath puts the pooled connection for addr in the state close
// leaves it in just before dropping it from the pool: death recorded,
// pending calls taken, socket closed, pool entry still in place.
func recordDeath(t *testing.T, o *ORB, addr string) *clientConn {
	t.Helper()
	o.mu.Lock()
	c := o.conns[addr]
	o.mu.Unlock()
	if c == nil {
		t.Fatalf("no pooled connection to %s", addr)
	}
	c.mu.Lock()
	c.err = CommFailure("stale death")
	c.pending = nil
	c.mu.Unlock()
	c.conn.Close()
	return c
}

// TestPooledConnWithRecordedDeathIsRedialed covers the window inside
// clientConn.close between recording a connection's death and dropping it
// from the pool: a call or a Prewarm in that window must dial afresh
// rather than use the dead connection.
func TestPooledConnWithRecordedDeathIsRedialed(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	dead := recordDeath(t, o, a.Addr())
	if sum, err := callAdd(o, ref, 2, 3); err != nil || sum != 5 {
		t.Fatalf("call over a connection whose death is recorded = %d, %v; want 5, <nil>", sum, err)
	}
	o.mu.Lock()
	c := o.conns[a.Addr()]
	o.mu.Unlock()
	if c == nil || c == dead {
		t.Fatal("the dead connection is still pooled")
	}
	recordDeath(t, o, a.Addr())
	if n := o.Prewarm(context.Background(), a.Addr()); n != 1 {
		t.Fatalf("Prewarm over a connection whose death is recorded = %d, want 1 redial", n)
	}
	if got := o.Stats().ConnectionsDialed; got != 3 {
		t.Fatalf("ConnectionsDialed = %d, want 3", got)
	}
}

func TestConcurrentInvocationsMultiplex(t *testing.T) {
	o, _, ref, sv := newTestPair(t, Options{})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sum, err := callAdd(o, ref, int64(i), int64(i))
			if err == nil && sum != int64(2*i) {
				err = fmt.Errorf("sum = %d, want %d", sum, 2*i)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.calls.Load(); got != n {
		t.Fatalf("servant saw %d calls, want %d", got, n)
	}
}

func TestCallTimeout(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{CallTimeout: 50 * time.Millisecond})
	err := o.Call(context.Background(), ref, "sleep", func(e *cdr.Encoder) { e.PutInt64(2000) }, nil)
	if !IsSystemException(err, ExTimeout) {
		t.Fatalf("err = %v, want TIMEOUT", err)
	}
}

func TestDeferredRequest(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	req := o.CreateRequest(context.Background(), ref, "add")
	req.Args().PutInt64(40)
	req.Args().PutInt64(2)
	req.Send()
	var sum int64
	if err := req.GetResponse(func(d *cdr.Decoder) error { sum = d.GetInt64(); return d.Err() }); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestDeferredRequestPoll(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	req := o.CreateRequest(context.Background(), ref, "sleep")
	req.Args().PutInt64(100)
	if req.PollResponse() {
		t.Fatal("poll true before send")
	}
	req.Send()
	deadline := time.Now().Add(5 * time.Second)
	for !req.PollResponse() {
		if time.Now().After(deadline) {
			t.Fatal("response never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if err := req.GetResponse(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredRequestGetBeforeSend(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	req := o.CreateRequest(context.Background(), ref, "add")
	if err := req.GetResponse(nil); !IsSystemException(err, ExBadOperation) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeferredRequestsOverlap(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	const n = 16
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = o.CreateRequest(context.Background(), ref, "add")
		reqs[i].Args().PutInt64(int64(i))
		reqs[i].Args().PutInt64(1)
		reqs[i].Send()
	}
	for i, req := range reqs {
		var sum int64
		if err := req.GetResponse(func(d *cdr.Decoder) error { sum = d.GetInt64(); return d.Err() }); err != nil {
			t.Fatal(err)
		}
		if sum != int64(i+1) {
			t.Fatalf("req %d: sum = %d", i, sum)
		}
	}
}

func TestIsA(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	ok, err := o.IsA(context.Background(), ref, "IDL:repro/Calc:1.0")
	if err != nil || !ok {
		t.Fatalf("IsA = %v, %v", ok, err)
	}
	ok, err = o.IsA(context.Background(), ref, "IDL:repro/Other:1.0")
	if err != nil || ok {
		t.Fatalf("IsA other = %v, %v", ok, err)
	}
	ghost := ref
	ghost.Key = "ghost"
	if _, err := o.IsA(context.Background(), ghost, "x"); !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestOnewayNotify(t *testing.T) {
	o, _, ref, sv := newTestPair(t, Options{})
	if err := o.Notify(context.Background(), ref, "add", func(e *cdr.Encoder) { e.PutInt64(1); e.PutInt64(2) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sv.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("oneway request never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	// Errors at the servant are not reported: a oneway to a ghost key
	// still returns nil once written.
	ghost := ref
	ghost.Key = "ghost"
	if err := o.Notify(context.Background(), ghost, "add", nil); err != nil {
		t.Fatalf("oneway to ghost errored locally: %v", err)
	}
	// The nil reference is still rejected client-side.
	if err := o.Notify(context.Background(), ObjectRef{}, "x", nil); !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
	// Subsequent synchronous calls on the same connection still work.
	if _, err := callAdd(o, ref, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestLocateAndPing(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	ok, err := o.Locate(context.Background(), ref)
	if err != nil || !ok {
		t.Fatalf("Locate = %v, %v", ok, err)
	}
	ghost := ref
	ghost.Key = "ghost"
	ok, err = o.Locate(context.Background(), ghost)
	if err != nil || ok {
		t.Fatalf("Locate ghost = %v, %v", ok, err)
	}
	if err := o.Ping(context.Background(), ref); err != nil {
		t.Fatalf("Ping = %v", err)
	}
	if err := o.Ping(context.Background(), ghost); !IsSystemException(err, ExObjectNotExist) {
		t.Fatalf("Ping ghost = %v", err)
	}
}

// forwardServant always replies LOCATION_FORWARD to its target.
type forwardServant struct{ target ObjectRef }

func (f *forwardServant) TypeID() string { return "IDL:repro/Forward:1.0" }
func (f *forwardServant) Invoke(ctx *ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	return &ForwardError{Target: f.target}
}

func TestLocationForwardFollowed(t *testing.T) {
	o, a, ref, _ := newTestPair(t, Options{})
	fwdRef := a.Activate("fwd", &forwardServant{target: ref})
	sum := int64(0)
	err := o.Call(context.Background(), fwdRef, "add",
		func(e *cdr.Encoder) { e.PutInt64(5); e.PutInt64(6) },
		func(d *cdr.Decoder) error { sum = d.GetInt64(); return d.Err() },
		WithFollowForwards())
	if err != nil {
		t.Fatal(err)
	}
	if sum != 11 {
		t.Fatalf("sum = %d", sum)
	}
	// A plain Call must surface the ForwardError.
	err = o.Call(context.Background(), fwdRef, "add", func(e *cdr.Encoder) { e.PutInt64(1); e.PutInt64(1) }, nil)
	var fe *ForwardError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want ForwardError", err)
	}
}

func TestForwardLoopBounded(t *testing.T) {
	o := New(Options{})
	defer o.Shutdown()
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := ObjectRef{TypeID: "loop", Addr: a.Addr(), Key: "loop"}
	a.Activate("loop", &forwardServant{target: self})
	err = o.Call(context.Background(), self, "op", nil, nil, WithFollowForwards())
	if !IsSystemException(err, ExTransient) {
		t.Fatalf("err = %v, want TRANSIENT", err)
	}
}

// countingInterceptor records interception-point hits.
type countingInterceptor struct {
	sendReq, recvReply, recvReq, sendReply atomic.Int64
}

func (c *countingInterceptor) RequestSent(ctx context.Context, _ *giop.Message) context.Context {
	c.sendReq.Add(1)
	return ctx
}
func (c *countingInterceptor) ReplyReceived(context.Context, *giop.Message, *giop.Message, error) {
	c.recvReply.Add(1)
}
func (c *countingInterceptor) DispatchStart(ctx context.Context, _ *giop.Message) context.Context {
	c.recvReq.Add(1)
	return ctx
}
func (c *countingInterceptor) DispatchEnd(context.Context, *giop.Message, *giop.Message) {
	c.sendReply.Add(1)
}

func TestInterceptorsRunAtAllPoints(t *testing.T) {
	ic := &countingInterceptor{}
	o, _, ref, _ := newTestPair(t, Options{CallInterceptors: []CallInterceptor{ic}})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	if ic.sendReq.Load() != 1 || ic.recvReply.Load() != 1 || ic.recvReq.Load() != 1 || ic.sendReply.Load() != 1 {
		t.Fatalf("interceptor counts: %d %d %d %d",
			ic.sendReq.Load(), ic.recvReply.Load(), ic.recvReq.Load(), ic.sendReply.Load())
	}
}

// ctxInterceptor stamps a service context on requests and checks it
// server-side.
type ctxInterceptor struct {
	sawContext atomic.Bool
}

func (c *ctxInterceptor) RequestSent(ctx context.Context, m *giop.Message) context.Context {
	m.SetContext(7, []byte("stamp"))
	return ctx
}
func (c *ctxInterceptor) ReplyReceived(_ context.Context, _, reply *giop.Message, _ error) {
	if reply != nil && string(reply.Context(8)) == "pmats" {
		c.sawContext.Store(true)
	}
}
func (c *ctxInterceptor) DispatchStart(ctx context.Context, _ *giop.Message) context.Context {
	return ctx
}
func (c *ctxInterceptor) DispatchEnd(_ context.Context, req, reply *giop.Message) {
	if string(req.Context(7)) == "stamp" {
		reply.SetContext(8, []byte("pmats"))
	}
}

func TestServiceContextsPropagate(t *testing.T) {
	ic := &ctxInterceptor{}
	o, _, ref, _ := newTestPair(t, Options{CallInterceptors: []CallInterceptor{ic}})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !ic.sawContext.Load() {
		t.Fatal("reply service context did not round trip")
	}
}

func TestShutdownFailsCalls(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	if _, err := callAdd(o, ref, 1, 1); err != nil {
		t.Fatal(err)
	}
	o.Shutdown()
	_, err := callAdd(o, ref, 1, 1)
	if !IsCommFailure(err) {
		t.Fatalf("err after shutdown = %v", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	o := New(Options{})
	o.Shutdown()
	o.Shutdown()
}

func TestStringifiedRefRoundTrip(t *testing.T) {
	in := ObjectRef{TypeID: "IDL:repro/Calc:1.0", Addr: "10.0.0.1:9999", Key: "poa/calc#1"}
	s := in.ToString()
	out, err := RefFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestRefFromStringErrors(t *testing.T) {
	// A reference as a build with the big-endian wire stringified it:
	// flag 0, each string's length high byte first.
	bigEndian := []byte{0}
	for _, s := range []string{"IDL:repro/Calc:1.0", "10.0.0.1:9999", "calc"} {
		for len(bigEndian)%4 != 0 {
			bigEndian = append(bigEndian, 0)
		}
		bigEndian = binary.BigEndian.AppendUint32(bigEndian, uint32(len(s)))
		bigEndian = append(bigEndian, s...)
	}
	cases := []string{"", "IOR:00", "SIOR:zz", "SIOR:01", "SIOR:" + hex.EncodeToString(bigEndian)}
	for _, s := range cases {
		if _, err := RefFromString(s); err == nil {
			t.Errorf("RefFromString(%q) succeeded", s)
		}
	}
}

func TestStringifiedRefUsableForCalls(t *testing.T) {
	o, _, ref, _ := newTestPair(t, Options{})
	parsed, err := RefFromString(ref.ToString())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := callAdd(o, parsed, 3, 4); err != nil {
		t.Fatal(err)
	}
}

func TestExceptionKindStrings(t *testing.T) {
	for k := ExUnknown; k <= ExTimeout; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
	se := CommFailure("x")
	if se.Error() == "" || !IsCommFailure(se) {
		t.Fatal("CommFailure construction")
	}
}

func BenchmarkLoopbackInvoke(b *testing.B) {
	o := New(Options{})
	defer o.Shutdown()
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ref := a.Activate("calc", &calcServant{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := callAdd(o, ref, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoopbackInvokeParallel(b *testing.B) {
	o := New(Options{})
	defer o.Shutdown()
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ref := a.Activate("calc", &calcServant{})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := callAdd(o, ref, 1, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
