package orb

import (
	"context"
	"time"

	"repro/internal/cdr"
)

// CallOption shapes a single invocation of the unified call API. Options
// compose left to right over a zero CallOptions value (plus whatever the
// calling layer's own defaults are: an ft proxy's retry policy, a
// Caller's Opts). This one variadic surface is the ORB's only
// synchronous call entry point (the historical Invoke / InvokeOptions /
// InvokeFollowForwards triplet has been removed).
type CallOption func(*CallOptions)

// WithDeadline bounds the call end to end, measured from the moment it is
// issued. The tighter of this, the context's own deadline and the ORB's
// default CallTimeout wins; the remaining time travels in the SCDeadline
// service context so expired requests are shed server-side.
func WithDeadline(d time.Duration) CallOption {
	return func(o *CallOptions) { o.Deadline = d }
}

// WithFollowForwards makes the call transparently follow
// LOCATION_FORWARD replies (bounded, to break forwarding loops).
func WithFollowForwards() CallOption {
	return func(o *CallOptions) { o.FollowForwards = true }
}

// WithPriority stamps the call with a QoS class (carried in the SCQoS
// service context): ClassCritical is dispatched first and never shed by
// admission control, ClassBatch is shed first under overload. The
// default, ClassNormal, sends no context at all.
func WithPriority(p Priority) CallOption {
	return func(o *CallOptions) { o.Priority = p }
}

// WithTenant identifies the caller for per-tenant admission fairness:
// the server spends one token from this tenant's bucket per admitted
// request. Calls without a tenant share the anonymous bucket.
func WithTenant(tenant string) CallOption {
	return func(o *CallOptions) { o.Tenant = tenant }
}

// NewCallOptions folds opts over a zero CallOptions value. Layers that
// mirror the Call API (ft proxies, generated stubs) use it to accept the
// same variadic options.
func NewCallOptions(opts ...CallOption) CallOptions {
	var o CallOptions
	o.Apply(opts...)
	return o
}

// Apply folds opts onto o in place, so a layer can overlay per-call
// options over its own defaults.
func (o *CallOptions) Apply(opts ...CallOption) {
	for _, opt := range opts {
		opt(o)
	}
}

// Call performs a synchronous remote invocation of op on ref: args fills
// the request body (nil for no arguments), reply consumes the reply body
// (nil for void results). Behaviour is shaped by the variadic options —
// deadline, retry budget and backoff, idempotency, LOCATION_FORWARD
// following, QoS class and tenant. With no options it is a plain
// bounded round trip: transport failures surface as COMM_FAILURE, servant
// errors as *UserException / *SystemException.
func (o *ORB) Call(ctx context.Context, ref ObjectRef, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error, opts ...CallOption) error {
	if len(opts) == 0 {
		// Fast path: a zero CallOptions literal stays off the heap, while
		// folding options pins the value with a pointer (escape analysis).
		return o.CallOpts(ctx, ref, op, args, reply, CallOptions{})
	}
	co := NewCallOptions(opts...)
	return o.CallOpts(ctx, ref, op, args, reply, co)
}

// CallOpts is Call with a pre-built CallOptions value — the non-variadic
// core that layers holding a long-lived CallOptions (Caller, ft proxies)
// invoke without re-folding options per call.
func (o *ORB) CallOpts(ctx context.Context, ref ObjectRef, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error, co CallOptions) error {
	if ref.IsNil() {
		return &SystemException{Kind: ExObjectNotExist, Detail: "nil object reference"}
	}
	if co.FollowForwards || co.RetryBudget > 0 {
		c := &Caller{ORB: o, Opts: co}
		c.SetRef(ref)
		return c.Call(ctx, op, args, reply)
	}
	return o.invokeOnce(ctx, ref, op, args, reply, co)
}

// Call runs one resilient invocation through the engine: the caller's
// configured Opts overlaid with the per-call options, applied on every
// attempt. It is the engine's one synchronous verb, mirroring ORB.Call;
// with no options it runs on the Caller itself and allocates nothing for
// the overlay.
func (c *Caller) Call(ctx context.Context, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error, opts ...CallOption) error {
	if len(opts) == 0 {
		return c.Do(ctx, op, func(ctx context.Context, ref ObjectRef) error {
			return c.ORB.invokeOnce(ctx, ref, op, args, reply, c.Opts)
		})
	}
	co := c.Opts
	co.Apply(opts...)
	sub := &Caller{ORB: c.ORB, Recover: c.Recover, RetryOn: c.RetryOn, OnRetry: c.OnRetry, Opts: co}
	sub.SetRef(c.Ref())
	err := sub.Call(ctx, op, args, reply)
	// Keep any reference the engine recovered to, so later calls through
	// this Caller start from the live target.
	if ref := sub.Ref(); !ref.IsNil() && ref != c.Ref() {
		c.SetRef(ref)
	}
	return err
}
