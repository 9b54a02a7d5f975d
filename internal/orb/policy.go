package orb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/obs"
)

// CallOptions bound and shape a single invocation. They replace the old
// single global Options.CallTimeout knob: every call can carry its own
// deadline, retry budget and backoff, with the ORB-level CallTimeout kept
// only as the default when Deadline is zero.
type CallOptions struct {
	// Deadline bounds the call end to end, measured from the moment the
	// call is issued. Zero falls back to the ORB's Options.CallTimeout;
	// the tighter of this and any deadline already carried by the caller's
	// context wins. The remaining time is propagated to the server in the
	// SCDeadline service context so expired requests are shed there.
	Deadline time.Duration
	// RetryBudget is the number of recover-and-replay rounds the resilient
	// call engine may spend after the first attempt fails. Zero means no
	// retries.
	RetryBudget int
	// Backoff spaces successive replay rounds.
	Backoff Backoff
	// Idempotent marks the operation safe to replay even when the failure
	// leaves the first attempt's outcome unknown (connection died after
	// the request was written, COMM_FAILURE). When false — and no
	// explicit RetryOn classifier overrides it — the engine only replays
	// failures that provably happened before the servant ran
	// (OBJECT_NOT_EXIST: the dispatch was rejected). The ft proxies set
	// their own classifier because checkpoint/restore makes replay safe.
	Idempotent bool
	// FollowForwards makes the call transparently follow LOCATION_FORWARD
	// replies (bounded by maxHops to break forwarding loops).
	FollowForwards bool
	// Priority is the call's QoS class, carried to the server in the
	// SCQoS service context. The zero value (ClassNormal) with an empty
	// Tenant sends no context at all — indistinguishable from a pre-QoS
	// client on the wire.
	Priority Priority
	// Tenant identifies the caller for per-tenant admission fairness
	// (token buckets at the server adapter). Empty means the anonymous
	// tenant.
	Tenant string
	// RequestContext, when its ID is non-zero, is attached to the request
	// of every attempt — the resilient-call engine re-applies it on each
	// replay, so a recovered call asks the replacement server for the same
	// thing. ReplyContext, when non-nil, names by its ID a reply service
	// context the caller wants back: every attempt that gets a reply sets
	// ReplyContext.Data to that context's data (nil when the reply has
	// none). The data is the caller's to keep. Together they are the seam
	// by which a layer above piggybacks on a call's own frames instead of
	// paying a round trip of its own; the ORB gives the ids no meaning.
	RequestContext giop.ServiceContext
	ReplyContext   *giop.ServiceContext
}

// Backoff is a bounded exponential backoff schedule with optional jitter.
type Backoff struct {
	// Base is the delay before the first replay. Zero disables sleeping.
	Base time.Duration
	// Max caps the grown delay (0 = uncapped).
	Max time.Duration
	// Multiplier grows the delay between rounds (default 2 when Base > 0).
	Multiplier float64
	// Jitter randomises each delay downward: the sleep is drawn uniformly
	// from [(1-Jitter)·d, d] where d is the deterministic exponential
	// delay. 0 keeps the schedule deterministic; 1 is full jitter. Values
	// outside [0, 1] are clamped. Without jitter, workers that died
	// together replay in lockstep against the replacement server.
	Jitter float64
	// Rand supplies the jitter randomness; nil uses a process-global
	// time-seeded source. Tests pass a seeded source for reproducibility.
	// Access is serialised internally, so a shared *rand.Rand is safe.
	Rand *rand.Rand
}

// backoffRand guards all Backoff jitter draws: Backoff values are copied
// freely across goroutines while sharing the same underlying source.
var backoffRandMu sync.Mutex

// backoffRand is the process-global jitter source for Backoff values with
// no explicit Rand.
var backoffRand = rand.New(rand.NewSource(time.Now().UnixNano()))

// Delay returns the sleep before retry round n (1-based): the exported
// view of the engine's schedule, for components that run their own retry
// loops (e.g. naming re-subscription) but want the same bounded
// exponential-with-jitter behaviour.
func (b Backoff) Delay(n int) time.Duration { return b.delay(n) }

// delay returns the sleep before replay round n (1-based).
func (b Backoff) delay(n int) time.Duration {
	if b.Base <= 0 || n <= 0 {
		return 0
	}
	mult := b.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(b.Base)
	for i := 1; i < n; i++ {
		d *= mult
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		src := b.Rand
		if src == nil {
			src = backoffRand
		}
		backoffRandMu.Lock()
		f := src.Float64()
		backoffRandMu.Unlock()
		d *= 1 - j*f
	}
	return time.Duration(d)
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryError reports that a resilient call failed and its retry budget was
// exhausted (or a recovery step itself failed).
type RetryError struct {
	// Op is the operation name.
	Op string
	// Attempts is the number of recovery rounds spent.
	Attempts int
	// Last is the final underlying failure.
	Last error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("orb: %s failed after %d recovery attempts: %v", e.Op, e.Attempts, e.Last)
}

func (e *RetryError) Unwrap() error { return e.Last }

// DefaultRetryOn is the engine's default failure classifier: COMM_FAILURE
// (the paper's recovery trigger), OBJECT_NOT_EXIST (server restarted
// without state) and QoS admission sheds (rejected before dispatch, with
// a retry-after hint) are retryable; everything else — user exceptions,
// bad operations, marshal errors — is returned to the caller unchanged.
func DefaultRetryOn(err error) bool {
	return IsCommFailure(err) || IsSystemException(err, ExObjectNotExist) || IsAdmissionShed(err)
}

// maxHops bounds LOCATION_FORWARD chains, breaking forwarding loops.
const maxHops = 8

// Caller is the unified resilient-call engine: one implementation of the
// invoke → on-failure → recover → backoff → replay loop that every layer
// above the ORB used to hand-roll separately (ft.Proxy, ft.RequestProxy,
// rosen.Manager). It also follows budget-free LOCATION_FORWARD redirects,
// at most maxHops of them per call.
//
// A Caller is safe for concurrent use; the current target reference is the
// only mutable state.
type Caller struct {
	// ORB performs the transport invocations.
	ORB *ORB
	// Recover maps a dead reference to a replacement before a replay.
	// When nil, the dead reference is retried as-is (pure retry).
	Recover func(ctx context.Context, dead ObjectRef, cause error) (ObjectRef, error)
	// RetryOn classifies retryable failures (default DefaultRetryOn).
	RetryOn func(error) bool
	// OnRetry is invoked before each replay round (1-based), after the
	// recovery for that round succeeded. Layers hang their replay
	// counters here.
	OnRetry func(round int, cause error)
	// Opts carry the per-call deadline, retry budget and backoff.
	Opts CallOptions

	mu  sync.Mutex
	ref ObjectRef
}

// Ref returns the current target reference (zero when unbound).
func (c *Caller) Ref() ObjectRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ref
}

// SetRef points the caller at ref.
func (c *Caller) SetRef(ref ObjectRef) {
	c.mu.Lock()
	c.ref = ref
	c.mu.Unlock()
}

// target returns the current reference, failing when there is none.
func (c *Caller) target() (ObjectRef, error) {
	ref := c.Ref()
	if ref.IsNil() {
		return ObjectRef{}, &SystemException{Kind: ExObjectNotExist, Detail: "caller has no reference"}
	}
	return ref, nil
}

// recoverRef obtains the replacement reference for a replay round.
func (c *Caller) recoverRef(ctx context.Context, dead ObjectRef, cause error) (ObjectRef, error) {
	if c.Recover != nil {
		return c.Recover(ctx, dead, cause)
	}
	return dead, nil
}

// Do runs one resilient call: attempt is invoked against the current
// reference; redirects are followed without consuming budget; retryable
// failures trigger recover-backoff-replay until the budget is spent. op is
// only used in error reports.
func (c *Caller) Do(ctx context.Context, op string, attempt func(ctx context.Context, ref ObjectRef) error) error {
	ref, err := c.target()
	if err != nil {
		return err
	}
	retryOn := c.RetryOn
	if retryOn == nil {
		if c.Opts.Idempotent {
			retryOn = DefaultRetryOn
		} else {
			// Unknown-outcome failures (COMM_FAILURE) are not replayed
			// for non-idempotent operations; see CallOptions.Idempotent.
			// Admission sheds provably happened before dispatch, so they
			// are replay-safe regardless of idempotency.
			retryOn = func(err error) bool {
				return IsSystemException(err, ExObjectNotExist) || IsAdmissionShed(err)
			}
		}
	}
	hops := 0
	span := obs.SpanFromContext(ctx)
	var last error
	for round := 0; ; {
		err := c.runAttempt(ctx, op, round, ref, attempt)
		if err == nil {
			return nil
		}
		var fwd *ForwardError
		if errors.As(err, &fwd) {
			hops++
			if hops > maxHops {
				return &SystemException{Kind: ExTransient, Detail: fmt.Sprintf("%s: too many redirect hops", op)}
			}
			span.AddEvent("redirect", obs.String("op", op), obs.String("addr", fwd.Target.Addr))
			ref = fwd.Target
			continue
		}
		if ctx.Err() != nil || !retryOn(err) {
			return err
		}
		// The failure is retryable: annotate the live span so a failover
		// reads as one linked trace — COMM_FAILURE is the paper's crash
		// signal and gets its own event name.
		if IsCommFailure(err) {
			span.AddEvent("comm_failure",
				obs.String("op", op), obs.String("addr", ref.Addr), obs.String("err", err.Error()))
		} else {
			span.AddEvent("call_failed", obs.String("op", op), obs.String("err", err.Error()))
		}
		last = err
		if round >= c.Opts.RetryBudget {
			return &RetryError{Op: op, Attempts: round, Last: last}
		}
		round++
		c.countRetry()
		if serr := sleepCtx(ctx, c.retryDelay(round, last)); serr != nil {
			return &RetryError{Op: op, Attempts: round, Last: last}
		}
		// Recovery itself may fail transiently — the naming service can be
		// partitioned or mid-restart exactly when we need a fresh reference.
		// A failed recovery consumes budget rounds like a failed call, so a
		// recovery path that heals within the budget still saves the call.
		fresh, rerr := c.recoverRef(ctx, ref, err)
		for rerr != nil {
			c.countRecovery(false)
			span.AddEvent("recovery_failed", obs.String("op", op), obs.String("err", rerr.Error()))
			last = rerr
			if ctx.Err() != nil || round >= c.Opts.RetryBudget {
				return &RetryError{Op: op, Attempts: round, Last: rerr}
			}
			round++
			c.countRetry()
			if serr := sleepCtx(ctx, c.retryDelay(round, last)); serr != nil {
				return &RetryError{Op: op, Attempts: round, Last: last}
			}
			fresh, rerr = c.recoverRef(ctx, ref, err)
		}
		c.countRecovery(true)
		span.AddEvent("recovered", obs.String("op", op), obs.String("addr", fresh.Addr))
		ref = fresh
		c.SetRef(fresh)
		if c.OnRetry != nil {
			c.OnRetry(round, err)
		}
	}
}

// retryDelay is the sleep before replay round n: the engine's backoff
// schedule widened to at least the server's retry-after hint (carried by
// admission-shed failures), so shed callers come back when the server
// said it would have capacity, not sooner.
func (c *Caller) retryDelay(n int, cause error) time.Duration {
	d := c.Opts.Backoff.delay(n)
	if ra := RetryAfterHint(cause); ra > d {
		d = ra
	}
	return d
}

// runAttempt invokes attempt; replay rounds (round > 0) under a traced
// caller get their own "replay" child span so recovered re-invocations
// show as distinct nodes of the same trace.
func (c *Caller) runAttempt(ctx context.Context, op string, round int, ref ObjectRef, attempt func(ctx context.Context, ref ObjectRef) error) error {
	if round == 0 || obs.SpanFromContext(ctx) == nil {
		return attempt(ctx, ref)
	}
	sctx, span := obs.StartSpan(ctx, "replay", obs.String("op", op), obs.Int("round", int64(round)))
	err := attempt(sctx, ref)
	span.EndErr(err)
	return err
}

// countRetry bumps the ORB's replay-round counter.
func (c *Caller) countRetry() {
	if c.ORB != nil {
		c.ORB.counters.retriesAttempted.Add(1)
	}
}

// countRecovery bumps the ORB's recovery outcome counters. Every recover
// step also feeds the recovery-storm anomaly: a burst of them — even
// successful ones — means the process is churning through replicas.
func (c *Caller) countRecovery(ok bool) {
	obs.Signal(obs.AnomalyRecovery)
	if c.ORB == nil {
		return
	}
	if ok {
		c.ORB.counters.recoveriesSucceeded.Add(1)
	} else {
		c.ORB.counters.recoveriesFailed.Add(1)
	}
}

// Notify forwards a oneway operation to the current reference. Oneways
// carry no reply, so failure detection — and therefore recovery — does not
// apply; the call is best-effort by construction.
func (c *Caller) Notify(ctx context.Context, op string, writeArgs func(*cdr.Encoder)) error {
	ref, err := c.target()
	if err != nil {
		return err
	}
	return c.ORB.Notify(ctx, ref, op, writeArgs)
}
