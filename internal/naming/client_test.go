package naming

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// raceEnabled is set in race_test.go: the race detector's own bookkeeping
// allocates, so allocation counts mean nothing there.
var raceEnabled bool

// resolveAllocCeiling is the most a one-reference client's Resolve may
// allocate, client and in-process server together (objects per call): 21
// measured alone, plus one for what other tests' stray goroutines
// allocate in the same process.
const resolveAllocCeiling = 22

// TestPlainClientCostsOneRequest: a NewClient client has no replica layer
// in its way — each operation is exactly one request, and Resolve
// allocates no more than the ceiling.
func TestPlainClientCostsOneRequest(t *testing.T) {
	ns := startNS(t, nil)
	o := clientORB(t)
	c := NewClient(o, ns.ref)
	ctx := context.Background()
	name := NewName("svc")
	target := testRef("h1:1", "a")

	sent := func(op string, f func() error) {
		t.Helper()
		before := o.Stats().RequestsSent
		if err := f(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if n := o.Stats().RequestsSent - before; n != 1 {
			t.Fatalf("%s sent %d requests, want 1", op, n)
		}
	}
	resolve := func() error {
		got, err := c.Resolve(ctx, name)
		if err == nil && got != target {
			t.Fatalf("resolve = %v, want %v", got, target)
		}
		return err
	}
	sent("BindOffer", func() error { return c.BindOffer(ctx, name, target, "h1") })
	sent("Resolve", resolve)

	if !raceEnabled {
		for i := 0; i < 50; i++ {
			if err := resolve(); err != nil {
				t.Fatal(err)
			}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const calls = 400
		least := -1.0
		for r := 0; r < 3; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if err := resolve(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / calls; least < 0 || per < least {
				least = per
			}
		}
		t.Logf("Resolve allocates %.3f objects per call", least)
		if least > resolveAllocCeiling {
			t.Errorf("Resolve allocates %.3f objects per call, ceiling %d", least, resolveAllocCeiling)
		}
	}

	sent("UnbindOffer", func() error { return c.UnbindOffer(ctx, name, target) })
}

// forwarder answers every request with LOCATION_FORWARD to another
// object.
type forwarder struct{ to orb.ObjectRef }

func (forwarder) TypeID() string { return TypeID }

func (f forwarder) Invoke(*orb.ServerContext, string, *cdr.Decoder, *cdr.Encoder) error {
	return &orb.ForwardError{Target: f.to}
}

// TestClientFollowsLocationForward: a naming reference that answers with
// LOCATION_FORWARD leads the client to the real service.
func TestClientFollowsLocationForward(t *testing.T) {
	ns := startNS(t, nil)
	name := NewName("svc")
	target := testRef("h1:1", "a")
	if err := ns.reg.Bind(name, target); err != nil {
		t.Fatal(err)
	}
	a, err := ns.o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	old := a.Activate("moved", forwarder{to: ns.ref})

	o := clientORB(t)
	if got, err := NewClient(o, old).Resolve(context.Background(), name); err != nil || got != target {
		t.Fatalf("resolve through a forward = %v, %v; want %v", got, err, target)
	}
}

// TestClientForwardHopBound: a naming reference that forwards to itself
// fails TRANSIENT at the hop bound instead of looping.
func TestClientForwardHopBound(t *testing.T) {
	ns := startNS(t, nil)
	a, err := ns.o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loop := orb.ObjectRef{TypeID: TypeID, Addr: a.Addr(), Key: "loop"}
	a.Activate("loop", forwarder{to: loop})

	o := clientORB(t)
	if _, err := NewClient(o, loop).Resolve(context.Background(), NewName("svc")); !orb.IsSystemException(err, orb.ExTransient) {
		t.Fatalf("resolve through a forwarding loop = %v, want TRANSIENT", err)
	}
}
