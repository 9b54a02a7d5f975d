package ft

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/orb"
)

// repairTimeout bounds one background read-repair write.
const repairTimeout = 5 * time.Second

// ReplicatedStore is a quorum client over N checkpoint store replicas,
// removing the single point of failure the paper's storage service has
// ("no real persistency ... has been implemented, yet" — and one daemon,
// at that). It implements Store, so proxies and managers use it exactly
// like a single store.
//
// Semantics:
//
//   - Put is write-all / ack-majority: the write fans out to every
//     replica concurrently and succeeds once a majority acks. A majority
//     of ErrStaleEpoch verdicts makes the Put stale (some replica holds a
//     newer epoch — the caller's view has been superseded).
//   - Get is read-newest-epoch: every replica is asked, a majority must
//     answer (ErrNoCheckpoint counts as an answer of epoch 0), and the
//     newest epoch among the answers wins. Because every acked Put
//     reached a majority, any read majority intersects it — the newest
//     acked checkpoint is never missed.
//   - After a Get, replicas that answered with an older epoch (or none,
//     or an error) are repaired in the background with the newest data,
//     so a replica that was down catches up as soon as it is read past.
//
// With N=3 the store serves reads and writes with any single replica
// down, crashed, or partitioned.
type ReplicatedStore struct {
	replicas []Store

	mu      sync.Mutex
	repairs sync.WaitGroup
	stats   ReplicatedStats
}

// ReplicatedStats counts quorum-level events.
type ReplicatedStats struct {
	// Puts / Gets count quorum operations that succeeded.
	Puts uint64
	Gets uint64
	// QuorumFailures counts operations that could not reach a majority.
	QuorumFailures uint64
	// Repairs counts background read-repair writes issued.
	Repairs uint64
}

// NewReplicatedStore builds a quorum client over replicas (local stores,
// StoreClients, or any mix). At least one replica is required; an even
// count works but tolerates no more failures than the next odd count
// down.
func NewReplicatedStore(replicas []Store) (*ReplicatedStore, error) {
	if len(replicas) == 0 {
		return nil, errors.New("ft: replicated store needs at least one replica")
	}
	return &ReplicatedStore{replicas: append([]Store(nil), replicas...)}, nil
}

// NewReplicatedStoreClient is the common wiring: a quorum client over
// remote checkpointd replicas at refs, all invoked through o.
func NewReplicatedStoreClient(o *orb.ORB, refs []orb.ObjectRef) (*ReplicatedStore, error) {
	stores := make([]Store, len(refs))
	for i, ref := range refs {
		stores[i] = NewStoreClient(o, ref)
	}
	return NewReplicatedStore(stores)
}

var _ Store = (*ReplicatedStore)(nil)

// Replicas returns the number of replicas.
func (r *ReplicatedStore) Replicas() int { return len(r.replicas) }

// Quorum returns the majority size.
func (r *ReplicatedStore) Quorum() int { return len(r.replicas)/2 + 1 }

// Stats returns a snapshot of the quorum counters.
func (r *ReplicatedStore) Stats() ReplicatedStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// WaitRepairs blocks until all in-flight background repairs finish —
// for tests and orderly shutdown.
func (r *ReplicatedStore) WaitRepairs() { r.repairs.Wait() }

func (r *ReplicatedStore) countQuorumFailure() {
	r.mu.Lock()
	r.stats.QuorumFailures++
	r.mu.Unlock()
}

// Put implements Store: write-all, ack-majority. Delta checkpoints fan
// out verbatim — each replica materializes against its own stored state.
// A replica that missed the previous epoch rejects the delta with
// ErrBadBase; as long as a majority applied it the Put still succeeds and
// the laggard converges via read-repair. A majority of bad-base verdicts
// surfaces ErrBadBase so the producer re-sends a full snapshot.
func (r *ReplicatedStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	errs := make([]error, len(r.replicas))
	var wg sync.WaitGroup
	for i, rep := range r.replicas {
		wg.Add(1)
		go func(i int, rep Store) {
			defer wg.Done()
			errs[i] = rep.Put(ctx, key, cp)
		}(i, rep)
	}
	wg.Wait()

	acks, stales, badBases := 0, 0, 0
	var firstErr error
	for _, err := range errs {
		switch {
		case err == nil:
			acks++
		case errors.Is(err, ErrStaleEpoch):
			stales++
		case errors.Is(err, ErrBadBase):
			badBases++
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	q := r.Quorum()
	if acks >= q {
		r.mu.Lock()
		r.stats.Puts++
		r.mu.Unlock()
		return nil
	}
	r.countQuorumFailure()
	if stales >= q {
		return fmt.Errorf("%w: key %q epoch %d rejected by %d/%d replicas", ErrStaleEpoch, key, cp.Epoch, stales, len(r.replicas))
	}
	if badBases > 0 {
		// Any bad-base verdict without an ack majority: make the producer
		// retry with a full snapshot, which every replica can apply.
		return fmt.Errorf("%w: key %q epoch %d rejected by %d/%d replicas", ErrBadBase, key, cp.Epoch, badBases, len(r.replicas))
	}
	if firstErr == nil {
		// Mixed acks and stales, neither a majority: report the stale
		// verdict, the only failure observed.
		return fmt.Errorf("%w: key %q epoch %d (split verdict: %d acks, %d stale)", ErrStaleEpoch, key, cp.Epoch, acks, stales)
	}
	return fmt.Errorf("ft: replicated put %q: %d/%d acks (need %d): %w", key, acks, len(r.replicas), q, firstErr)
}

// getResult is one replica's answer to a Get.
type getResult struct {
	cp  Checkpoint
	err error
	// answered is true for a definitive reply: a checkpoint, or a typed
	// "I have none" (epoch 0). Transport errors and corruption are not
	// answers.
	answered bool
}

// Get implements Store: read-newest-epoch over a majority of answers,
// with background read-repair of lagging replicas.
func (r *ReplicatedStore) Get(ctx context.Context, key string) (Checkpoint, error) {
	results := make([]getResult, len(r.replicas))
	var wg sync.WaitGroup
	for i, rep := range r.replicas {
		wg.Add(1)
		go func(i int, rep Store) {
			defer wg.Done()
			cp, err := rep.Get(ctx, key)
			res := getResult{cp: cp, err: err}
			switch {
			case err == nil:
				res.answered = true
			case errors.Is(err, ErrNoCheckpoint):
				res.answered = true // definitive: nothing stored (epoch 0)
				res.cp = Checkpoint{}
			}
			results[i] = res
		}(i, rep)
	}
	wg.Wait()

	answers := 0
	best := -1
	var firstErr error
	for i, res := range results {
		if !res.answered {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		answers++
		if res.err == nil && (best < 0 || res.cp.Epoch > results[best].cp.Epoch) {
			best = i
		}
	}
	q := r.Quorum()
	if answers < q {
		r.countQuorumFailure()
		if firstErr == nil {
			firstErr = errors.New("no replica reachable")
		}
		return Checkpoint{}, fmt.Errorf("ft: replicated get %q: %d/%d answers (need %d): %w", key, answers, len(r.replicas), q, firstErr)
	}
	if best < 0 {
		// A majority definitively has nothing.
		r.mu.Lock()
		r.stats.Gets++
		r.mu.Unlock()
		return Checkpoint{}, fmt.Errorf("%w: key %q (per %d/%d replicas)", ErrNoCheckpoint, key, answers, len(r.replicas))
	}

	newest := results[best]
	r.mu.Lock()
	r.stats.Gets++
	r.mu.Unlock()
	r.repair(key, newest.cp, results)
	return newest.cp, nil
}

// repair launches background Puts of the newest checkpoint into every
// replica that does not have it, so a replica that missed writes (down,
// partitioned, fresh disk) converges on the next read that touches the
// key. Repairs always ship the materialized full snapshot (Get returns
// full state), so a replica that missed delta epochs can still apply
// them. Repairs are best-effort: a stale rejection means the replica
// already advanced past us, any other failure will be retried by a later
// read.
func (r *ReplicatedStore) repair(key string, newest Checkpoint, results []getResult) {
	if newest.Epoch == 0 {
		return
	}
	for i, res := range results {
		if res.answered && res.err == nil && res.cp.Epoch >= newest.Epoch {
			continue
		}
		rep := r.replicas[i]
		r.mu.Lock()
		r.stats.Repairs++
		r.mu.Unlock()
		r.repairs.Add(1)
		go func(rep Store) {
			defer r.repairs.Done()
			rctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
			defer cancel()
			_ = rep.Put(rctx, key, newest)
		}(rep)
	}
}

// Delete implements Store: fan out, succeed on a majority of acks.
func (r *ReplicatedStore) Delete(ctx context.Context, key string) error {
	errs := make([]error, len(r.replicas))
	var wg sync.WaitGroup
	for i, rep := range r.replicas {
		wg.Add(1)
		go func(i int, rep Store) {
			defer wg.Done()
			errs[i] = rep.Delete(ctx, key)
		}(i, rep)
	}
	wg.Wait()
	acks := 0
	var firstErr error
	for _, err := range errs {
		if err == nil {
			acks++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if q := r.Quorum(); acks < q {
		r.countQuorumFailure()
		return fmt.Errorf("ft: replicated delete %q: %d/%d acks (need %d): %w", key, acks, len(r.replicas), q, firstErr)
	}
	return nil
}

// Keys implements Store: the union of keys over a majority of answers
// (a key acked by any Put reached a majority, so the union over any
// majority is complete).
func (r *ReplicatedStore) Keys(ctx context.Context) ([]string, error) {
	type keysResult struct {
		keys []string
		err  error
	}
	results := make([]keysResult, len(r.replicas))
	var wg sync.WaitGroup
	for i, rep := range r.replicas {
		wg.Add(1)
		go func(i int, rep Store) {
			defer wg.Done()
			keys, err := rep.Keys(ctx)
			results[i] = keysResult{keys: keys, err: err}
		}(i, rep)
	}
	wg.Wait()
	answers := 0
	seen := make(map[string]bool)
	var firstErr error
	for _, res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		answers++
		for _, k := range res.keys {
			seen[k] = true
		}
	}
	if q := r.Quorum(); answers < q {
		r.countQuorumFailure()
		return nil, fmt.Errorf("ft: replicated keys: %d/%d answers (need %d): %w", answers, len(r.replicas), q, firstErr)
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}
