package orb

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// BreakerState is the circuit breaker's current disposition.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed lets all calls through (the healthy steady state).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe call through; its outcome
	// decides whether the breaker closes again or re-opens.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerOptions tune a Breaker.
type BreakerOptions struct {
	// Threshold is how many consecutive failures open the breaker
	// (default 1: a naming replica that refused one call is probably down,
	// and probing it again costs a full connect timeout).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 1s).
	Cooldown time.Duration
	// Name identifies the guarded endpoint in anomaly reports. Empty
	// breakers still signal, just anonymously.
	Name string
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Breaker is a per-endpoint circuit breaker: closed → (Threshold
// consecutive failures) → open → (Cooldown) → half-open, where a single
// probe call decides between closed and open again. Callers ask Allow
// before attempting and must report the attempt's outcome via Success or
// Failure, or Abandon when there was none. All methods are safe for
// concurrent use.
type Breaker struct {
	mu       sync.Mutex
	opts     BreakerOptions
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker creates a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 1
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Breaker{opts: opts}
}

// Allow reports whether a call may be attempted now. In the open state it
// transitions to half-open once the cooldown has elapsed and admits that
// single probe; further calls are rejected until the probe reports back.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.opts.Clock().Sub(b.openedAt) < b.opts.Cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		// Only one in-flight probe at a time; if the probe's outcome was
		// already reported the breaker has left this state.
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful call: the breaker closes and the failure
// count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed call. In the closed state it counts toward the
// threshold; in half-open it re-opens immediately (the probe failed).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.opts.Threshold {
			b.trip()
		}
	case BreakerHalfOpen, BreakerOpen:
		// A failure while open can happen when several calls were admitted
		// before the first failure was reported; either way the endpoint is
		// still down — restart the cooldown.
		b.trip()
	}
}

// Abandon reports an attempt that ended without an outcome — the caller's
// own context finished first. A half-open probe slot is freed for the next
// caller; state and failure count are left as they were.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// trip opens the breaker (caller holds the lock). The closed/half-open →
// open transition raises the breaker anomaly; re-trips while already open
// stay quiet so one flapping endpoint cannot spam the diagnostics plane.
func (b *Breaker) trip() {
	if b.state != BreakerOpen {
		obs.SignalTrip(obs.AnomalyBreakerOpen, b.opts.Name)
	}
	b.state = BreakerOpen
	b.failures = 0
	b.probing = false
	b.openedAt = b.opts.Clock()
}

// State returns the breaker's current state (open flips to half-open only
// on the Allow that admits the probe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
