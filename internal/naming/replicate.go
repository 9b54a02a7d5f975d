package naming

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orb"
)

// Replication: every nameserver replica periodically pushes its registry
// snapshot (stamped with the monotonic epoch) to its peers via the
// sync_state operation; receivers adopt only strictly newer state
// (Registry.AdoptSnapshot). With clients pinned to a common primary
// ordering (NewHAClient), writes serialise on one replica and the others
// trail by at most one sync period — the classic primary-copy CosNaming
// deployment, with last-writer-wins convergence after partitions.

// ReplicatorOptions tune a Replicator.
type ReplicatorOptions struct {
	// Period is the push interval (default 1s). Pushes are skipped while
	// the local epoch hasn't moved since the last successful push.
	Period time.Duration
	// PushTimeout bounds one push to one peer (default: Period).
	PushTimeout time.Duration
}

// replPeer is one replication target. The peer's reference may live in a
// ref-file that does not exist yet (replicas starting concurrently), so
// resolution is lazy and retried every round until it succeeds.
type replPeer struct {
	spec string

	mu         sync.Mutex
	client     *Client
	lastPushed uint64
	hasPushed  bool
}

// Replicator pushes registry snapshots to peer nameservers.
type Replicator struct {
	orb   *orb.ORB
	reg   *Registry
	peers []*replPeer
	opts  ReplicatorOptions

	pushes     atomic.Uint64
	pushErrors atomic.Uint64
	stopOnce   sync.Once
	stop       chan struct{}
	done       chan struct{}
	started    bool
	mu         sync.Mutex
}

// ParsePeerSpecs splits a comma-separated -peers value into individual
// peer specs. Each spec is either a stringified reference (SIOR) or
// @path, naming a file the peer's SIOR will appear in (the checkpointd
// -peers convention) — resolved lazily, so replicas can start in any
// order.
func ParsePeerSpecs(spec string) []string {
	var out []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// NewReplicator builds a replicator pushing reg's snapshots to peers.
func NewReplicator(o *orb.ORB, reg *Registry, peerSpecs []string, opts ReplicatorOptions) *Replicator {
	if opts.Period <= 0 {
		opts.Period = time.Second
	}
	if opts.PushTimeout <= 0 {
		opts.PushTimeout = opts.Period
	}
	r := &Replicator{orb: o, reg: reg, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	for _, spec := range peerSpecs {
		r.peers = append(r.peers, &replPeer{spec: spec})
	}
	return r
}

// Pushes returns how many snapshot pushes have succeeded.
func (r *Replicator) Pushes() uint64 { return r.pushes.Load() }

// PushErrors returns how many pushes have failed (peer down, not yet
// resolvable, ...). Failed pushes retry next round.
func (r *Replicator) PushErrors() uint64 { return r.pushErrors.Load() }

// resolve returns the peer's client stub, building it on first use.
func (p *replPeer) resolve(o *orb.ORB) (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client != nil {
		return p.client, nil
	}
	ref, err := orb.RefFromSpec(p.spec)
	if err != nil {
		return nil, fmt.Errorf("naming: peer: %w", err)
	}
	p.client = NewClient(o, ref)
	return p.client, nil
}

// Step pushes the current snapshot to every peer whose view is behind.
// Tests drive Step directly; production use runs Start.
func (r *Replicator) Step(ctx context.Context) {
	epoch := r.reg.Epoch()
	var snap []byte
	for _, p := range r.peers {
		p.mu.Lock()
		upToDate := p.hasPushed && p.lastPushed >= epoch
		p.mu.Unlock()
		if upToDate {
			continue
		}
		client, err := p.resolve(r.orb)
		if err != nil {
			r.pushErrors.Add(1)
			continue
		}
		if snap == nil {
			// Taken after the epoch read, so the snapshot is at least as
			// new as what we record below — a concurrent mutation costs
			// one redundant push, never a lost one.
			snap = r.reg.Snapshot()
		}
		pctx, cancel := context.WithTimeout(ctx, r.opts.PushTimeout)
		adopted, peerEpoch, err := client.SyncState(pctx, snap)
		cancel()
		if err != nil {
			r.pushErrors.Add(1)
			slog.Debug("naming: replication push failed", "peer", p.spec, "err", err)
			continue
		}
		r.pushes.Add(1)
		p.mu.Lock()
		p.lastPushed = epoch
		p.hasPushed = true
		p.mu.Unlock()
		if !adopted && peerEpoch > epoch {
			// The peer is ahead: it will push to us shortly. Nothing to do —
			// adoption is one-directional per push.
			slog.Debug("naming: peer ahead", "peer", p.spec, "peer_epoch", peerEpoch, "local_epoch", epoch)
		}
	}
}

// Start launches the periodic push loop. Start is idempotent.
func (r *Replicator) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.opts.Period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Step(context.Background())
			case <-r.stop:
				return
			}
		}
	}()
}

// HealthProbe is the replication mesh's component probe for obs.Health:
// unhealthy before Start, after Stop, and while every push so far has
// failed (no peer reachable yet — replicas are diverging).
func (r *Replicator) HealthProbe() error {
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if !started {
		return errors.New("replicator not started")
	}
	select {
	case <-r.stop:
		return errors.New("replicator stopped")
	default:
	}
	if p, e := r.pushes.Load(), r.pushErrors.Load(); p == 0 && e > 0 {
		return fmt.Errorf("no peer reachable yet (%d push errors)", e)
	}
	return nil
}

// Stop halts the push loop and waits for it to exit.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}
