package orb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/giop"
	"repro/internal/obs"
)

// CallOptions bound and shape a single invocation. They replace the old
// single global Options.CallTimeout knob: every call can carry its own
// deadline, with the ORB-level CallTimeout kept only as the default when
// Deadline is zero.
type CallOptions struct {
	// Deadline bounds the call end to end, measured from the moment the
	// call is issued. Zero falls back to the ORB's Options.CallTimeout;
	// the tighter of this and any deadline already carried by the caller's
	// context wins. The remaining time is propagated to the server in the
	// SCDeadline service context so expired requests are shed there.
	Deadline time.Duration
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
	// RequestContext, when its ID is non-zero, is attached to the request;
	// a layer that replays the call passes the same options again, so a
	// recovered call asks the replacement server for the same thing.
	// ReplyContext, when non-nil, names by its ID a reply service context
	// the caller wants back: every call that gets a reply sets
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

// Delay returns the sleep before retry round n (1-based). Besides the
// replay loop, naming re-subscription spaces its rounds by it.
func (b Backoff) Delay(n int) time.Duration {
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

// RetryError reports that a call failed and its recovery budget was
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

// Caller is the recover-and-replay loop behind the FT proxies — the
// paper's recovery: an attempt whose failure RetryOn accepts is followed
// by a backoff, a Recover step that maps the dead reference to a live
// one, and a replay against it, until an attempt succeeds or Budget
// rounds are spent. It lives in the ORB because it keeps the ORB's replay
// and recovery counters. A Caller is a policy value built once: it holds
// no reference, so it is safe for concurrent use — the reference a call
// starts on goes into Do and the one it finished on comes back. Recover
// and RetryOn are required.
type Caller struct {
	// ORB's counters record replay rounds and recovery outcomes.
	ORB *ORB
	// Recover maps the reference an attempt failed on to a replacement.
	Recover func(ctx context.Context, dead ObjectRef) (ObjectRef, error)
	// RetryOn classifies the failures that trigger recovery; every other
	// failure goes back to the caller unchanged.
	RetryOn func(error) bool
	// Budget is the number of recovery rounds after the first attempt.
	Budget int
	// Backoff spaces successive rounds.
	Backoff Backoff
}

// Do runs attempt against ref and, while it fails retryably, recovers and
// replays. It returns the reference the last attempt ran against. op is
// only used in traces and error reports.
func (c *Caller) Do(ctx context.Context, op string, ref ObjectRef, attempt func(ctx context.Context, ref ObjectRef) error) (ObjectRef, error) {
	span := obs.SpanFromContext(ctx)
	for round := 0; ; {
		err := c.runAttempt(ctx, op, round, ref, attempt)
		if err == nil {
			return ref, nil
		}
		if ctx.Err() != nil || !c.RetryOn(err) {
			return ref, err
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
		// Recovery itself may fail transiently — the naming service can be
		// partitioned or mid-restart exactly when we need a fresh reference.
		// A failed recovery consumes budget rounds like a failed call, so a
		// recovery path that heals within the budget still saves the call.
		last := err
		for {
			if round >= c.Budget {
				return ref, &RetryError{Op: op, Attempts: round, Last: last}
			}
			round++
			c.countRetry()
			if sleepCtx(ctx, c.Backoff.Delay(round)) != nil {
				return ref, &RetryError{Op: op, Attempts: round, Last: last}
			}
			fresh, rerr := c.Recover(ctx, ref)
			if rerr == nil {
				c.countRecovery(true)
				span.AddEvent("recovered", obs.String("op", op), obs.String("addr", fresh.Addr))
				ref = fresh
				break
			}
			c.countRecovery(false)
			span.AddEvent("recovery_failed", obs.String("op", op), obs.String("err", rerr.Error()))
			last = rerr
			if ctx.Err() != nil {
				return ref, &RetryError{Op: op, Attempts: round, Last: last}
			}
		}
	}
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
