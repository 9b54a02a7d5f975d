package orb

import (
	"context"
	"sync"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// Request is a DII-style deferred request object. Mirroring the CORBA
// Dynamic Invocation Interface that the paper uses for asynchronous calls,
// a client builds a Request, Sends it without blocking, continues working,
// and later polls or waits for the response.
//
// A Request is single-shot: Send may be called once. It is safe to poll
// from one goroutine while the transfer completes in another.
type Request struct {
	orb *ORB
	ctx context.Context
	ref ObjectRef
	op  string

	args   *cdr.Encoder
	reqCtx giop.ServiceContext // set with SetRequestContext, sent when its ID is non-zero

	mu          sync.Mutex
	sent        bool
	intercepted bool
	done        chan struct{}
	msg         *giop.Message   // the request as sent (for ReplyReceived); its Body is args' bytes
	sentCtx     context.Context // ctx after the RequestSent hooks ran
	reply       *giop.Message
	err         error
}

// CreateRequest builds a deferred request for op on ref (the DII
// create_request analogue). ctx bounds the whole deferred call — Send's
// transfer and the wait in GetResponse — exactly as it would a synchronous
// Invoke: cancellation abandons the reply and sends a wire-level cancel
// (the http.NewRequestWithContext convention: ctx is captured at
// construction so Send/GetResponse keep their signatures).
func (o *ORB) CreateRequest(ctx context.Context, ref ObjectRef, op string) *Request {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Request{
		orb:  o,
		ctx:  ctx,
		ref:  ref,
		op:   op,
		args: cdr.NewEncoder(128),
		done: make(chan struct{}),
	}
}

// Ref returns the target object reference.
func (r *Request) Ref() ObjectRef { return r.ref }

// Operation returns the operation name.
func (r *Request) Operation() string { return r.op }

// Args exposes the argument encoder. Write all arguments before Send.
func (r *Request) Args() *cdr.Encoder { return r.args }

// SetRequestContext attaches a service context to the request — the DII
// form of CallOptions.RequestContext. Call it before Send.
func (r *Request) SetRequestContext(id uint32, data []byte) {
	r.reqCtx = giop.ServiceContext{ID: id, Data: data}
}

// ReplyContext returns the data of the reply's service context with the
// given id — the DII form of CallOptions.ReplyContext. It is nil until
// the response has arrived, and when the reply carries no such context.
func (r *Request) ReplyContext(id uint32) []byte {
	if !r.PollResponse() || r.reply == nil {
		return nil
	}
	return r.reply.Context(id)
}

// Send initiates the invocation without waiting for the reply (the DII
// send_deferred analogue). Calling Send twice is a no-op.
//
// Send-side interceptors run synchronously before Send returns, so the
// request is stamped (e.g. with the caller's virtual time) as of the
// moment of sending, not whenever the transfer goroutine gets scheduled.
func (r *Request) Send() {
	r.mu.Lock()
	if r.sent {
		r.mu.Unlock()
		return
	}
	r.sent = true
	r.mu.Unlock()

	// The request owns its argument stream for as long as it lives, so the
	// message sends those bytes as they are.
	m, _ := r.orb.buildRequest(r.ref, r.op, nil)
	m.Body = r.args.Bytes()
	if r.reqCtx.ID != 0 {
		m.SetContext(r.reqCtx.ID, r.reqCtx.Data)
	}
	sctx := r.orb.callRequestSent(r.ctx, m)
	r.mu.Lock()
	r.msg, r.sentCtx = m, sctx
	r.mu.Unlock()

	go func() {
		reply, err := r.orb.transferRequest(sctx, r.ref, m, CallOptions{})
		r.mu.Lock()
		r.reply, r.err = reply, err
		r.mu.Unlock()
		close(r.done)
	}()
}

// PollResponse reports whether the response has arrived (the DII
// poll_response analogue). It never blocks.
func (r *Request) PollResponse() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// GetResponse blocks until the response arrives and decodes it with
// readReply (nil for void results); the DII get_response analogue.
// Transport failures surface as COMM_FAILURE, exactly as for synchronous
// calls, so request proxies can apply the same recovery.
func (r *Request) GetResponse(readReply func(*cdr.Decoder) error) error {
	r.mu.Lock()
	sent := r.sent
	r.mu.Unlock()
	if !sent {
		return &SystemException{Kind: ExBadOperation, Detail: "GetResponse before Send"}
	}
	<-r.done
	r.mu.Lock()
	intercepted := r.intercepted
	r.intercepted = true
	r.mu.Unlock()
	if r.err != nil {
		if !intercepted {
			r.orb.callReplyReceived(r.sentCtx, r.msg, nil, r.err)
		}
		return r.err
	}
	if !intercepted {
		// Receive interceptors run here, in the consumer's goroutine, at
		// most once per request (GetResponse may be called repeatedly).
		r.orb.callReplyReceived(r.sentCtx, r.msg, r.reply, nil)
	}
	// The reply is never released: it may be decoded again, so the read
	// window it aliases is collected with the request, not recycled.
	return decodeReply(r.reply, readReply)
}
