package ft

import (
	"context"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/obs"
	"repro/internal/orb"
)

// RequestProxy is the fault-tolerant counterpart of orb.Request: the
// paper's "request proxies are used just like the object proxies" for DII
// asynchronous invocations. The argument stream is retained so the request
// can be replayed transparently against a recovered server object.
type RequestProxy struct {
	proxy *Proxy
	ctx   context.Context
	op    string
	args  *cdr.Encoder
	req   *orb.Request
	// marked is decided at Send: this is the call after which a checkpoint
	// is due, so every underlying request — replays too — asks for the
	// state, with mark naming the proxy's delta base as it was then.
	marked bool
	mark   []byte
	span   *obs.Span // "ft.invoke", opened at NewRequest, closed at GetResponse
}

// NewRequest creates a deferred request for op through the proxy. ctx
// bounds the whole deferred call — sending, the wait in GetResponse and
// any recovery replays — following the same capture-at-construction
// convention as orb.CreateRequest.
func (p *Proxy) NewRequest(ctx context.Context, op string) *RequestProxy {
	if ctx == nil {
		ctx = context.Background()
	}
	// The deferred call's whole lifetime — send, wait, recovery replays —
	// runs under one ft.invoke span, mirroring the synchronous path.
	sctx, span := obs.StartSpan(ctx, "ft.invoke",
		obs.String("op", op), obs.String("name", p.key))
	return &RequestProxy{proxy: p, ctx: sctx, op: op, args: cdr.NewEncoder(128), span: span}
}

// Operation returns the operation name.
func (r *RequestProxy) Operation() string { return r.op }

// Args exposes the argument encoder. Write all arguments before Send.
func (r *RequestProxy) Args() *cdr.Encoder { return r.args }

// send issues a fresh underlying DII request against ref.
func (r *RequestProxy) send(ref orb.ObjectRef) {
	req := r.proxy.orb.CreateRequest(r.ctx, ref, r.op)
	req.Args().PutRaw(r.args.Bytes())
	if r.marked {
		req.SetRequestContext(giop.SCCheckpoint, r.mark)
	}
	req.Send()
	r.req = req
}

// Send initiates the invocation without blocking. Calling Send twice is a
// no-op.
func (r *RequestProxy) Send() {
	if r.req != nil {
		return
	}
	if r.marked = r.proxy.checkpointDue(); r.marked {
		r.mark = r.proxy.baseMark(make([]byte, markLen))
	}
	r.send(r.proxy.Ref())
}

// PollResponse reports whether the (current) underlying request finished.
func (r *RequestProxy) PollResponse() bool {
	return r.req != nil && r.req.PollResponse()
}

// GetResponse waits for the response, driving checkpoint-on-success and
// recover-and-replay-on-failure exactly like Proxy.Call — both run the
// proxy's one replay loop; here each replay re-sends the retained argument
// stream asynchronously against the recovered server. Like a plain
// orb.Request, it follows no LOCATION_FORWARD.
func (r *RequestProxy) GetResponse(readReply func(*cdr.Decoder) error) error {
	if r.req == nil {
		return &orb.SystemException{Kind: orb.ExBadOperation, Detail: "GetResponse before Send"}
	}
	p := r.proxy
	first := true
	ref, err := p.replay.Do(r.ctx, r.op, r.req.Ref(), func(_ context.Context, ref orb.ObjectRef) error {
		if !first {
			r.send(ref)
		}
		first = false
		return r.req.GetResponse(readReply)
	})
	if err == nil {
		err = p.afterSuccess(r.ctx, ref, r.op, r.marked, r.req.ReplyContext(giop.SCCheckpoint))
	}
	r.span.EndErr(err)
	return err
}
