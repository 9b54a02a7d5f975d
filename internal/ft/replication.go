package ft

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

// ReplicaGroup implements *active replication*, the fault-tolerance style
// of the systems the paper compares against (Piranha, IGOR): every call
// is multicast to all replicas, keeping their states in lockstep, and the
// first successful reply is the result. No checkpointing is needed — but
// every replica burns a host for the whole lifetime of the service, which
// is exactly the resource cost the paper's checkpoint/restart design
// avoids ("it is not desirable to use a large amount of the computational
// resources exclusively for availability purposes").
//
// The group is driven by one client goroutine at a time per call slot;
// concurrent calls from multiple goroutines are safe but their relative
// order across replicas is then unspecified (as with any active
// replication without a total-order multicast).
type ReplicaGroup struct {
	orb  *orb.ORB
	name naming.Name

	mu    sync.Mutex
	refs  []orb.ObjectRef
	stats ReplicaStats
}

// ReplicaStats are cumulative counters of a ReplicaGroup.
type ReplicaStats struct {
	// Calls counts logical invocations.
	Calls uint64
	// Fanout counts physical invocations (Calls × live replicas).
	Fanout uint64
	// Failures counts replica invocations that failed.
	Failures uint64
	// Dropped counts replicas removed from the group after failing.
	Dropped uint64
}

// NewReplicaGroup builds a group over all current offers of name.
func NewReplicaGroup(ctx context.Context, o *orb.ORB, name naming.Name, lister OfferLister) (*ReplicaGroup, error) {
	offers, err := lister.ListOffers(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("ft: replica group %s: %w", name, err)
	}
	g := &ReplicaGroup{orb: o, name: name}
	for _, of := range offers {
		g.refs = append(g.refs, of.Ref)
	}
	if len(g.refs) == 0 {
		return nil, fmt.Errorf("ft: replica group %s: no offers", name)
	}
	return g, nil
}

// NewReplicaGroupFromRefs builds a group over explicit references.
func NewReplicaGroupFromRefs(o *orb.ORB, name naming.Name, refs []orb.ObjectRef) (*ReplicaGroup, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("ft: replica group %s: no replicas", name)
	}
	g := &ReplicaGroup{orb: o, name: name}
	g.refs = append(g.refs, refs...)
	return g, nil
}

// Size returns the number of live replicas.
func (g *ReplicaGroup) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.refs)
}

// Refs returns the live replica references.
func (g *ReplicaGroup) Refs() []orb.ObjectRef {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]orb.ObjectRef(nil), g.refs...)
}

// Stats returns a snapshot of the counters.
func (g *ReplicaGroup) Stats() ReplicaStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// replicaOutcome is one replica's result of a multicast round.
type replicaOutcome struct {
	ref orb.ObjectRef
	err error
}

// Call multicasts op to every replica and decodes the first successful
// reply. Replicas that fail are dropped from the group; the call fails
// only when every replica failed.
func (g *ReplicaGroup) Call(ctx context.Context, op string, writeArgs func(*cdr.Encoder), readReply func(*cdr.Decoder) error) error {
	req := g.NewRequest(ctx, op)
	if writeArgs != nil {
		writeArgs(req.Args())
	}
	req.Send()
	return req.GetResponse(readReply)
}

// ReplicaRequest is the DII-style deferred form of a multicast call.
type ReplicaRequest struct {
	group *ReplicaGroup
	ctx   context.Context
	op    string
	args  *cdr.Encoder
	reqs  []*orb.Request
	refs  []orb.ObjectRef
	sent  bool
}

// NewRequest creates a deferred multicast request. ctx bounds every
// replica's invocation (capture-at-construction, like orb.CreateRequest).
func (g *ReplicaGroup) NewRequest(ctx context.Context, op string) *ReplicaRequest {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ReplicaRequest{group: g, ctx: ctx, op: op, args: cdr.NewEncoder(128)}
}

// Args exposes the argument encoder. Write all arguments before Send.
func (r *ReplicaRequest) Args() *cdr.Encoder { return r.args }

// Send dispatches the call to every live replica without blocking.
func (r *ReplicaRequest) Send() {
	if r.sent {
		return
	}
	r.sent = true
	r.refs = r.group.Refs()
	for _, ref := range r.refs {
		req := r.group.orb.CreateRequest(r.ctx, ref, r.op)
		req.Args().PutRaw(r.args.Bytes())
		req.Send()
		r.reqs = append(r.reqs, req)
	}
	r.group.mu.Lock()
	r.group.stats.Calls++
	r.group.stats.Fanout += uint64(len(r.reqs))
	r.group.mu.Unlock()
}

// GetResponse waits for all replicas (keeping survivors in lockstep),
// decodes the first successful reply, and drops replicas that failed with
// a communication error.
func (r *ReplicaRequest) GetResponse(readReply func(*cdr.Decoder) error) error {
	if !r.sent {
		return &orb.SystemException{Kind: orb.ExBadOperation, Detail: "GetResponse before Send"}
	}
	// Await every reply (lockstep); the first success is decoded below,
	// the others only awaited and discarded.
	outcomes := make([]replicaOutcome, len(r.reqs))
	for i, req := range r.reqs {
		outcomes[i] = replicaOutcome{ref: r.refs[i], err: req.GetResponse(nil)}
	}

	var firstErr error
	decoded := false
	var dead []orb.ObjectRef
	for i, out := range outcomes {
		if out.err == nil {
			if !decoded && readReply != nil {
				// Re-issue decoding against the captured reply: requests
				// cache their reply, so GetResponse with a reader is
				// idempotent for decoding purposes.
				if err := r.reqs[i].GetResponse(readReply); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
			}
			decoded = true
			continue
		}
		if firstErr == nil {
			firstErr = out.err
		}
		if orb.IsCommFailure(out.err) || orb.IsSystemException(out.err, orb.ExObjectNotExist) {
			dead = append(dead, out.ref)
		}
	}

	g := r.group
	g.mu.Lock()
	for _, d := range dead {
		for i, ref := range g.refs {
			if ref == d {
				g.refs = append(g.refs[:i], g.refs[i+1:]...)
				g.stats.Dropped++
				break
			}
		}
	}
	g.stats.Failures += uint64(len(r.reqs) - countSuccesses(outcomes))
	g.mu.Unlock()

	if decoded {
		return nil
	}
	if anySuccess(outcomes) {
		// Replies arrived but every decode failed.
		return firstErr
	}
	if orb.IsUserException(firstErr, "") {
		// Every replica raised the same application exception; surface it
		// as the call's outcome rather than as a replication failure.
		return firstErr
	}
	return fmt.Errorf("ft: all %d replicas of %s failed: %w", len(r.reqs), g.name, firstErr)
}

func countSuccesses(outs []replicaOutcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n++
		}
	}
	return n
}

func anySuccess(outs []replicaOutcome) bool { return countSuccesses(outs) > 0 }
