package orb

import (
	"context"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// mirrorServant answers "mirror" by sending the request's service context
// 0x51 back, reversed, as reply context 0x52 — and only when it got one.
type mirrorServant struct{}

const (
	scAsk    uint32 = 0x51
	scAnswer uint32 = 0x52
)

func (mirrorServant) TypeID() string { return "IDL:repro/Mirror:1.0" }

func (mirrorServant) Invoke(ctx *ServerContext, op string, _ *cdr.Decoder, _ *cdr.Encoder) error {
	if op != "mirror" {
		return BadOperation(op)
	}
	if ctx.Request.HasContext(scAsk) {
		in := ctx.Request.Context(scAsk)
		out := make([]byte, len(in))
		for i, b := range in {
			out[len(in)-1-i] = b
		}
		ctx.AddReplyContext(scAnswer, out)
	}
	return nil
}

func newMirror(t *testing.T) (*ORB, ObjectRef) {
	t.Helper()
	o := New(Options{})
	t.Cleanup(o.Shutdown)
	a, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return o, a.Activate("mirror", mirrorServant{})
}

// TestCallOptionsContexts: the synchronous half of the seam. The request
// context goes out, the named reply context comes back and outlives the
// pooled reply; without a request context the slot is set to nil; a
// replay sends the request context again.
func TestCallOptionsContexts(t *testing.T) {
	o, ref := newMirror(t)
	ctx := context.Background()
	answer := giop.ServiceContext{ID: scAnswer}
	opts := CallOptions{
		RequestContext: giop.ServiceContext{ID: scAsk, Data: []byte("abc")},
		ReplyContext:   &answer,
	}
	if err := o.CallOpts(ctx, ref, "mirror", nil, nil, opts); err != nil {
		t.Fatal(err)
	}
	kept := answer.Data
	if string(kept) != "cba" {
		t.Fatalf("reply context = %q, want %q", kept, "cba")
	}

	opts.RequestContext = giop.ServiceContext{}
	if err := o.CallOpts(ctx, ref, "mirror", nil, nil, opts); err != nil {
		t.Fatal(err)
	}
	if answer.Data != nil {
		t.Fatalf("reply context after an unmarked call = %q, want nil", answer.Data)
	}
	if string(kept) != "cba" {
		t.Fatalf("kept reply context changed to %q once its reply was recycled", kept)
	}

	// First attempt against a dead address, recovery to the live servant:
	// the replay passes the same options again.
	dead := ObjectRef{TypeID: ref.TypeID, Addr: "127.0.0.1:1", Key: ref.Key}
	c := &Caller{
		ORB:     o,
		Recover: func(context.Context, ObjectRef) (ObjectRef, error) { return ref, nil },
		RetryOn: IsCommFailure,
		Budget:  1,
	}
	opts = CallOptions{
		RequestContext: giop.ServiceContext{ID: scAsk, Data: []byte("xy")},
		ReplyContext:   &answer,
	}
	got, err := c.Do(ctx, "mirror", dead, func(ctx context.Context, ref ObjectRef) error {
		return o.CallOpts(ctx, ref, "mirror", nil, nil, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(answer.Data) != "yx" || got != ref {
		t.Fatalf("after replay: reply context %q on %v", answer.Data, got)
	}
}

// TestDeferredRequestContexts: the DII half.
func TestDeferredRequestContexts(t *testing.T) {
	o, ref := newMirror(t)
	req := o.CreateRequest(context.Background(), ref, "mirror")
	req.SetRequestContext(scAsk, []byte("abc"))
	if got := req.ReplyContext(scAnswer); got != nil {
		t.Fatalf("reply context before Send = %q", got)
	}
	req.Send()
	if err := req.GetResponse(nil); err != nil {
		t.Fatal(err)
	}
	if got := req.ReplyContext(scAnswer); string(got) != "cba" {
		t.Fatalf("reply context = %q, want %q", got, "cba")
	}

	plain := o.CreateRequest(context.Background(), ref, "mirror")
	plain.Send()
	if err := plain.GetResponse(nil); err != nil {
		t.Fatal(err)
	}
	if got := plain.ReplyContext(scAnswer); got != nil {
		t.Fatalf("reply context of an unmarked request = %q", got)
	}
}
