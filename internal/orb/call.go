package orb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
)

// CallOption shapes a single invocation of the unified call API. Options
// compose left to right over a zero CallOptions value. This one variadic
// surface is the ORB's only synchronous call entry point (the historical
// Invoke / InvokeOptions / InvokeFollowForwards triplet has been removed).
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
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Call performs a synchronous remote invocation of op on ref: args fills
// the request body (nil for no arguments), reply consumes the reply body
// (nil for void results). Behaviour is shaped by the variadic options —
// deadline, LOCATION_FORWARD following, QoS class and tenant. With no
// options it is a plain bounded round trip: transport failures surface
// as COMM_FAILURE, servant errors as *UserException / *SystemException.
func (o *ORB) Call(ctx context.Context, ref ObjectRef, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error, opts ...CallOption) error {
	if len(opts) == 0 {
		// Fast path: a zero CallOptions literal stays off the heap, while
		// folding options pins the value with a pointer (escape analysis).
		return o.CallOpts(ctx, ref, op, args, reply, CallOptions{})
	}
	co := NewCallOptions(opts...)
	return o.CallOpts(ctx, ref, op, args, reply, co)
}

// maxHops bounds LOCATION_FORWARD chains, breaking forwarding loops.
const maxHops = 8

// CallOpts is Call with a pre-built CallOptions value — the non-variadic
// core that layers holding a long-lived CallOptions (the naming client,
// ft proxies) invoke without re-folding options per call. With
// FollowForwards it is the one place LOCATION_FORWARD replies are
// followed: at most maxHops of them, TRANSIENT past that.
func (o *ORB) CallOpts(ctx context.Context, ref ObjectRef, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error, co CallOptions) error {
	for hops := 0; ; hops++ {
		err := o.invokeOnce(ctx, ref, op, args, reply, co)
		if err == nil || !co.FollowForwards {
			return err
		}
		var fwd *ForwardError
		if !errors.As(err, &fwd) {
			return err
		}
		if hops == maxHops {
			return &SystemException{Kind: ExTransient, Detail: fmt.Sprintf("%s: too many redirect hops", op)}
		}
		obs.SpanFromContext(ctx).AddEvent("redirect", obs.String("op", op), obs.String("addr", fwd.Target.Addr))
		ref = fwd.Target
	}
}
