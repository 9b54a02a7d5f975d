// Package core implements the paper's primary contribution: load
// distribution integrated transparently into the CORBA naming service.
//
// Servers on each workstation of a NOW register their object references as
// *offers* under one name. Clients resolve that name exactly as they would
// against an unmodified naming service — no client code changes — but the
// service's resolve consults the Winner resource management system and
// returns the offer on the host with the currently best performance
// (Figure 1 of the paper). The plain baseline and the Winner-enhanced
// service differ only in the Selector plugged into the same servant,
// mirroring the paper's claim that the extension is interface-compatible
// and reusable with any ORB.
package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/winner"
)

// HostRanker answers "which of these hosts is currently best?". The
// in-process winner.Manager satisfies it directly; wrap the remote
// winner.Client in a ClientRanker so the naming service can colocate with
// the system manager or consult it over the ORB.
type HostRanker interface {
	BestOf(candidates []string) (string, error)
}

var (
	_ HostRanker = (*winner.Manager)(nil)
	_ HostRanker = ClientRanker{}
)

// ClientRanker adapts the remote winner.Client to HostRanker, bounding
// each ranking query so a slow system manager degrades resolve latency by
// at most Timeout instead of stalling it (the selector falls back to
// round-robin on error).
type ClientRanker struct {
	C *winner.Client
	// Timeout bounds one ranking query. Zero means 1s.
	Timeout time.Duration
}

// BestOf implements HostRanker.
func (r ClientRanker) BestOf(candidates []string) (string, error) {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return r.C.BestOf(ctx, candidates)
}

// WinnerSelector is the load-distribution policy: among a name's offers it
// picks the one on the host Winner ranks best. Offers on hosts unknown to
// Winner are still eligible as a fallback — the paper's requirement that
// the enhanced service is never worse than the plain one means resolve
// must keep working when load data is missing or the system manager is
// unreachable.
//
// The selector degrades gracefully when the manager itself dies: a
// circuit breaker guards the ranker, so after a transport-class ranking
// failure (COMM_FAILURE, timeout) resolves fall back to round-robin
// immediately instead of paying a connect timeout each, probing the
// manager again only after the breaker's cooldown. Every fallback is
// counted (exported as winner_fallback_total) and tagged with its reason
// on the resolve trace.
type WinnerSelector struct {
	ranker HostRanker
	// Fallback handles offers when Winner cannot rank (no data, system
	// manager down). Defaults to registration-order round-robin, i.e.
	// plain-naming behaviour.
	fallback naming.Selector
	// breaker guards the ranker against an unreachable system manager.
	breaker *orb.Breaker
	// fallbacks counts resolves that degraded to the fallback selector.
	fallbacks atomic.Uint64
	// degraded, set by the ORB's adaptive-degradation controller, routes
	// every resolve straight to the cheap fallback — under overload the
	// ranking round trip to the system manager is the first cost to shed.
	degraded atomic.Bool
}

// NewWinnerSelector builds a selector backed by ranker. fallback may be
// nil for the round-robin default.
func NewWinnerSelector(ranker HostRanker, fallback naming.Selector) *WinnerSelector {
	if fallback == nil {
		fallback = naming.RoundRobinSelector()
	}
	return &WinnerSelector{
		ranker:   ranker,
		fallback: fallback,
		breaker:  orb.NewBreaker(orb.BreakerOptions{Threshold: 1, Cooldown: 2 * time.Second}),
	}
}

// ConfigureBreaker replaces the breaker guarding the ranker (tests and
// daemons with non-default cooldowns). Call before serving resolves.
func (s *WinnerSelector) ConfigureBreaker(opts orb.BreakerOptions) {
	s.breaker = orb.NewBreaker(opts)
}

// Fallbacks returns how many resolves degraded to the fallback selector —
// the nameserver exports it as winner_fallback_total.
func (s *WinnerSelector) Fallbacks() uint64 { return s.fallbacks.Load() }

// SetDegraded forces (or lifts) degraded selection: while set, resolves
// skip the ranker entirely and use the cheap fallback policy, tagged
// ReasonFallbackDegraded. Normally driven through DegradeHook.
func (s *WinnerSelector) SetDegraded(on bool) { s.degraded.Store(on) }

// Degraded reports whether degraded selection is in force.
func (s *WinnerSelector) Degraded() bool { return s.degraded.Load() }

// DegradeHook adapts the selector to the ORB's degradation controller:
// register the returned func with orb.ORB.OnDegrade and the selector
// switches to its cheap fallback in any mode below normal.
func (s *WinnerSelector) DegradeHook() func(orb.DegradeMode) {
	return func(mode orb.DegradeMode) { s.SetDegraded(mode != orb.ModeNormal) }
}

// Select implements naming.Selector.
func (s *WinnerSelector) Select(name naming.Name, offers []naming.Offer) (naming.Offer, error) {
	o, _, err := s.SelectExplain(name, offers)
	return o, err
}

// rankerUnreachable classifies a ranking error as transport-class: the
// manager process (not its answer) failed. Only these trip the breaker —
// an authoritative NoHosts/AllStale answer proves the manager is alive.
func rankerUnreachable(err error) bool {
	return orb.IsCommFailure(err) ||
		orb.IsSystemException(err, orb.ExTimeout) ||
		orb.IsSystemException(err, orb.ExTransient) ||
		orb.IsSystemException(err, orb.ExObjectNotExist) ||
		errors.Is(err, context.DeadlineExceeded)
}

// SelectExplain implements naming.ExplainingSelector: the decision
// reason records whether Winner ranked the host or a fallback applied,
// so resolve traces show why a host won.
func (s *WinnerSelector) SelectExplain(name naming.Name, offers []naming.Offer) (naming.Offer, naming.Decision, error) {
	hosts := make([]string, 0, len(offers))
	seen := make(map[string]bool, len(offers))
	for _, o := range offers {
		if o.Host != "" && !seen[o.Host] {
			seen[o.Host] = true
			hosts = append(hosts, o.Host)
		}
	}
	if len(hosts) == 0 {
		return s.fallbackExplain(name, offers, naming.ReasonFallbackNoHosts)
	}
	if s.degraded.Load() {
		// Degraded mode: the runtime is shedding load, and the ranking
		// round trip is optional work — round-robin is never worse than
		// plain naming.
		return s.fallbackExplain(name, offers, naming.ReasonFallbackDegraded)
	}
	if !s.breaker.Allow() {
		// The manager is known-dead and the cooldown hasn't elapsed:
		// degrade without paying another connect timeout.
		return s.fallbackExplain(name, offers, naming.ReasonFallbackWinnerDown)
	}
	best, err := s.ranker.BestOf(hosts)
	if err != nil {
		// No ranking available: degrade to plain behaviour rather than
		// failing the resolve.
		if rankerUnreachable(err) {
			s.breaker.Failure()
			return s.fallbackExplain(name, offers, naming.ReasonFallbackWinnerDown)
		}
		s.breaker.Success()
		if winner.IsAllStale(err) {
			return s.fallbackExplain(name, offers, naming.ReasonFallbackStale)
		}
		return s.fallbackExplain(name, offers, naming.ReasonFallbackRankerError)
	}
	s.breaker.Success()
	for _, o := range offers {
		if o.Host == best {
			return o, naming.Decision{Reason: naming.ReasonWinnerBest}, nil
		}
	}
	return s.fallbackExplain(name, offers, naming.ReasonFallbackHostUnknown)
}

// fallbackExplain runs the fallback selector and tags the decision.
func (s *WinnerSelector) fallbackExplain(name naming.Name, offers []naming.Offer, reason string) (naming.Offer, naming.Decision, error) {
	s.fallbacks.Add(1)
	o, err := s.fallback.Select(name, offers)
	return o, naming.Decision{Reason: reason}, err
}

// NewLoadNamingServant assembles the paper's enhanced naming service: a
// standard naming servant whose group resolution is driven by Winner.
func NewLoadNamingServant(reg *naming.Registry, ranker HostRanker) *naming.Servant {
	return naming.NewServant(reg, NewWinnerSelector(ranker, nil))
}

// NewPlainNamingServant assembles the unmodified baseline: the same
// servant with registration-order round-robin resolution.
func NewPlainNamingServant(reg *naming.Registry) *naming.Servant {
	return naming.NewServant(reg, naming.RoundRobinSelector())
}
