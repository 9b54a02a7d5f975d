package orb

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestBreaker(th int, cd time.Duration, c *fakeClock) *Breaker {
	return NewBreaker(BreakerOptions{Threshold: th, Cooldown: cd, Clock: c.now})
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(3, time.Second, clk)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Failure()
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(1, time.Second, clk)
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted a call immediately")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe after cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second call while the probe is in flight")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(1, time.Second, clk)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted")
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The cooldown restarted at the probe failure.
	clk.advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted a call before the restarted cooldown elapsed")
	}
	clk.advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker did not admit a probe after the restarted cooldown")
	}
}

func TestBreakerAbandonedProbeFreesTheSlot(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(1, time.Second, clk)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted")
	}
	b.Abandon()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after abandoned probe = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("abandoned probe kept the slot: no second probe admitted")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(2, time.Second, clk)
	b.Failure()
	b.Success()
	b.Failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (success should reset the streak)", got)
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerOptions{})
	if !b.Allow() {
		t.Fatal("fresh breaker rejected a call")
	}
	b.Failure() // default threshold 1
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open with default threshold 1", got)
	}
}
