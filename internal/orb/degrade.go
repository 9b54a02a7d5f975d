package orb

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// DegradeMode is the runtime's adaptive-degradation state. Under
// sustained overload the controller walks the ORB down the ladder —
// normal → degraded → critical-only — trading optional work (batch
// admission, expensive winner ranking, tight checkpoint sync) for
// headroom, then walks it back up as load recedes.
type DegradeMode int32

// Degradation modes, least to most degraded.
const (
	// ModeNormal: full service, every class admitted.
	ModeNormal DegradeMode = iota
	// ModeDegraded: batch admission closed; checkpoint sync relaxed,
	// winner selection on its cheap fallback.
	ModeDegraded
	// ModeCriticalOnly: only critical-class requests are admitted; all
	// ModeDegraded measures stay in force.
	ModeCriticalOnly
	numDegradeModes = 3
)

// String returns the mode's wire-stable name.
func (m DegradeMode) String() string {
	switch m {
	case ModeDegraded:
		return "degraded"
	case ModeCriticalOnly:
		return "critical-only"
	default:
		return "normal"
	}
}

// DegradeMode returns the ORB's current degradation mode.
func (o *ORB) DegradeMode() DegradeMode { return DegradeMode(o.degrade.Load()) }

// OnDegrade registers fn to run on every degradation transition (with
// the new mode). Layers above the ORB — the checkpointing proxy, the
// winner selector — hook their own degraded behaviour here. Register
// during setup only.
func (o *ORB) OnDegrade(fn func(DegradeMode)) {
	o.mu.Lock()
	o.degradeHooks = append(o.degradeHooks, fn)
	o.mu.Unlock()
}

// SetDegradeMode forces a degradation mode, applying every side effect
// of a controller-driven transition (hooks, anomaly, admission gate).
// The controller uses it internally; tests and operators use it to force
// a mode.
func (o *ORB) SetDegradeMode(mode DegradeMode) {
	if mode < ModeNormal || mode >= numDegradeModes {
		mode = ModeCriticalOnly
	}
	prev := DegradeMode(o.degrade.Swap(int32(mode)))
	if prev == mode {
		return
	}
	o.mu.Lock()
	hooks := make([]func(DegradeMode), len(o.degradeHooks))
	copy(hooks, o.degradeHooks)
	o.mu.Unlock()
	for _, fn := range hooks {
		fn(mode)
	}
	obs.SignalTrip(obs.AnomalyDegradeMode, fmt.Sprintf("%s: %s -> %s", o.opts.Name, prev, mode))
}

// LoadScore is the ORB's default degradation signal: the worse of
// dispatch-queue occupancy and worker-pool occupancy, in [0, 1]. It is
// derived from the same reactor state PR 8's gauges export, so what the
// controller acts on is what /obs shows.
func (o *ORB) LoadScore() float64 {
	o.mu.Lock()
	pool := o.pool
	o.mu.Unlock()
	if pool == nil {
		return 0
	}
	var queue, busy float64
	if pool.capacity > 0 {
		queue = float64(pool.depth()) / float64(pool.capacity)
	}
	if pool.size > 0 {
		busy = float64(pool.busy.Load()) / float64(pool.size)
	}
	if queue > busy {
		return queue
	}
	return busy
}

// DegradeConfig shapes the adaptive-degradation controller.
type DegradeConfig struct {
	// High is the load score at or above which the controller steps one
	// mode down the ladder (normal → degraded → critical-only). Zero
	// means 0.85.
	High float64
	// Low is the load score at or below which it steps back up. Zero
	// means 0.5; keep Low < High or the mode flaps.
	Low float64
	// Interval is the sampling period. Zero means 250ms.
	Interval time.Duration
	// HoldTicks is how many consecutive samples must agree before a
	// transition fires (debounce). Zero means 2.
	HoldTicks int
	// Source supplies the load score each tick. Nil means ORB.LoadScore.
	// Tests inject synthetic signal sources here.
	Source func() float64
}

func (c DegradeConfig) withDefaults(o *ORB) DegradeConfig {
	if c.High <= 0 {
		c.High = 0.85
	}
	if c.Low <= 0 {
		c.Low = 0.5
	}
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.HoldTicks <= 0 {
		c.HoldTicks = 2
	}
	if c.Source == nil {
		c.Source = o.LoadScore
	}
	return c
}

// StartDegradeController runs the adaptive-degradation control loop:
// every Interval it samples the load score and, after HoldTicks
// agreeing samples, moves the ORB one mode at a time along
// normal ↔ degraded ↔ critical-only. The returned stop func halts the
// loop (leaving the current mode in place; callers wanting a clean exit
// call SetDegradeMode(ModeNormal) after stopping).
func (o *ORB) StartDegradeController(cfg DegradeConfig) (stop func()) {
	cfg = cfg.withDefaults(o)
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		var hotTicks, coolTicks int
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			score := cfg.Source()
			mode := o.DegradeMode()
			switch {
			case score >= cfg.High:
				hotTicks++
				coolTicks = 0
				if hotTicks >= cfg.HoldTicks && mode < ModeCriticalOnly {
					o.SetDegradeMode(mode + 1)
					hotTicks = 0
				}
			case score <= cfg.Low:
				coolTicks++
				hotTicks = 0
				if coolTicks >= cfg.HoldTicks && mode > ModeNormal {
					o.SetDegradeMode(mode - 1)
					coolTicks = 0
				}
			default:
				// Between the thresholds: hold the current mode (hysteresis).
				hotTicks, coolTicks = 0, 0
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// QoSHealthProbe is the degradation-aware component probe for
// obs.Health: healthy in normal mode, failing with the mode name while
// degraded — so /healthz surfaces every transition the anomaly log
// records.
func (o *ORB) QoSHealthProbe() error {
	if mode := o.DegradeMode(); mode != ModeNormal {
		return fmt.Errorf("degraded: mode %s", mode)
	}
	return nil
}
