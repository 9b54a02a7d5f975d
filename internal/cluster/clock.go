// Package cluster simulates the paper's testbed: a network of workstations
// (NOW) with per-host relative speeds, background load, failure injection,
// and a Lamport-style virtual clock per host that is propagated through
// GIOP service contexts on every request and reply.
//
// Virtual time substitutes for the paper's wall-clock measurements on ten
// real workstations: compute cost is charged explicitly via Host.Compute,
// so experiment runtimes are deterministic and independent of the noisy
// physical CPU the simulation happens to run on, while every invocation
// still travels the real ORB/TCP stack.
package cluster

import (
	"sync"
)

// Clock is a monotone virtual clock measured in seconds. It follows
// Lamport's rules: local work advances it, received messages merge it
// forward to the sender's stamp. It is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d seconds (negative d is ignored)
// and returns the new time.
func (c *Clock) Advance(d float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// Merge moves the clock forward to t if t is ahead (Lamport receive rule)
// and returns the new time.
func (c *Clock) Merge(t float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset sets the clock back to zero (between experiment runs).
func (c *Clock) Reset() {
	c.mu.Lock()
	c.now = 0
	c.mu.Unlock()
}
