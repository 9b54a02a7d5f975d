package ft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

// Resolver obtains a (fresh) object reference for a service name — the
// naming service indirection the proxy uses for recovery. naming.Client
// satisfies it.
type Resolver interface {
	Resolve(ctx context.Context, name naming.Name) (orb.ObjectRef, error)
}

// Unbinder removes a dead offer from a group binding so the naming
// service stops handing out references to a crashed server. Optional;
// naming.Client satisfies it.
type Unbinder interface {
	UnbindOffer(ctx context.Context, name naming.Name, ref orb.ObjectRef) error
}

// PushedResolver is a Resolver whose membership is maintained by pushed
// naming invalidations (naming.GroupRef). Recovery then marks the dead
// member locally and re-resolves from the cached membership — no naming
// RPC at all on the common failover path; the nameserver learns of the
// death through the lease mesh and pushes the removal to everyone.
type PushedResolver interface {
	Resolver
	MarkDead(ref orb.ObjectRef)
}

// Policy tunes proxy behaviour.
type Policy struct {
	// CheckpointEvery stores a checkpoint after every Nth successful
	// call. 1 (the paper's default) checkpoints after each call; 0
	// disables checkpointing (stateless services). The call after which
	// one is due carries the giop.SCCheckpoint mark and its reply brings
	// the state — or what changed of it — back, so a checkpointed call is
	// two requests: the call and the store put.
	CheckpointEvery int
	// MaxRecoveries bounds recovery attempts per call (default 3).
	MaxRecoveries int
	// Backoff spaces successive recovery rounds. Zero means immediate
	// replay (the paper's behaviour).
	Backoff orb.Backoff
	// RecoverOn classifies errors as triggering recovery. The default
	// recovers on COMM_FAILURE (the paper's trigger) and OBJECT_NOT_EXIST
	// (server restarted without state) and on nothing else: a QoS
	// admission shed, for one, goes back to the caller with its
	// retry-after hint, since a throttled server is alive. Replay is safe
	// for ft proxies regardless of idempotency because the restored
	// checkpoint rewinds the server to the pre-call state.
	RecoverOn func(error) bool
	// StrictCheckpoint makes a failed post-call checkpoint — a reply that
	// came back without the state it was asked for, or a store put that
	// failed — fail the call. Off by default: the business result is
	// already known; the failure is still counted in Stats.
	StrictCheckpoint bool
}

func (p Policy) withDefaults() Policy {
	if p.MaxRecoveries == 0 {
		p.MaxRecoveries = 3
	}
	if p.RecoverOn == nil {
		p.RecoverOn = crashed
	}
	return p
}

// crashed is the default Policy.RecoverOn: the server is gone, or came
// back without the object.
func crashed(err error) bool {
	return orb.IsCommFailure(err) || orb.IsSystemException(err, orb.ExObjectNotExist)
}

// Stats are cumulative proxy counters.
type Stats struct {
	Calls              uint64 // successful business calls
	Checkpoints        uint64 // checkpoints stored
	CheckpointFailures uint64 // checkpoint attempts that failed
	Recoveries         uint64 // successful recoveries (re-resolve+restore)
	Replays            uint64 // calls re-issued after recovery
	CheckpointBytes    uint64 // payload bytes actually written to the store
	DeltaCheckpoints   uint64 // checkpoints stored as the servant's delta, relayed
}

// RecoveryError reports that a call failed and every recovery attempt was
// exhausted. It is the ORB replay loop's error under its historical ft
// name, so errors.As works across both layers.
type RecoveryError = orb.RetryError

// Proxy is the paper's client-side proxy class, generalized: it stands in
// for the IDL stub, forwards every operation, checkpoints the server state
// after successful calls, and on failure re-resolves the service name,
// restores the last checkpoint into the fresh server object and replays
// the call. The state to checkpoint comes back on the business reply
// itself (see Wrapper): a reply that reports success carries the state
// that call produced, so there is no moment at which the client knows of
// a success the store cannot reproduce except the put itself. The
// recover-and-replay loop is the ORB's (orb.Caller); the proxy
// contributes the recovery step (unbind dead offer, re-resolve, restore
// checkpoint). Proxies are safe for concurrent use; recovery is
// serialized, and snapshots are stored in the order the servant captured
// them whatever order their replies arrive in.
type Proxy struct {
	orb      *orb.ORB
	name     naming.Name
	key      string // name.String(), computed once: the checkpoint key and every span's name attribute
	resolver Resolver
	store    Store
	unbinder Unbinder
	policy   Policy
	// replay is the recover-and-replay loop every call runs under, built
	// from policy once.
	replay orb.Caller

	mu        sync.Mutex
	ref       orb.ObjectRef
	epoch     uint64
	sinceCkpt int
	stats     Stats

	// recoverMu serializes whole recovery sequences.
	recoverMu sync.Mutex

	// ckptMu serializes checkpoint production — the capture-order check,
	// epoch allocation, the choice between relaying a delta and putting the
	// full state — and guards the base. Lock order: ckptMu before mu, never
	// the reverse.
	ckptMu sync.Mutex
	// lastFull is the delta base: the newest state the store is known to
	// hold, at lastEpoch, in a buffer the proxy owns outright. baseID names
	// the capture it is (zero if none), which a marked request carries. It
	// moves forward only, when a put is acked — an acked delta patches it in
	// place — or a Get returns a newer state, never when a checkpoint is
	// produced: its put may yet come back stale (another writer got that
	// epoch), and a delta against it would then patch that writer's state.
	lastFull  []byte
	lastEpoch uint64
	baseID    captureID
	// snap names the newest capture given an epoch. A capture of the same
	// incarnation with a lower number is older than what the store already
	// has and is dropped; a restarted servant has a new incarnation.
	snap captureID
}

// ProxyOption customizes a Proxy.
type ProxyOption func(*Proxy)

// WithUnbinder lets the proxy remove dead offers from the naming service
// during recovery.
func WithUnbinder(u Unbinder) ProxyOption {
	return func(p *Proxy) { p.unbinder = u }
}

// WithInitialRef skips the initial resolve and starts at ref.
func WithInitialRef(ref orb.ObjectRef) ProxyOption {
	return func(p *Proxy) { p.ref = ref }
}

// NewProxy builds a proxy for the service registered under name. Unless
// WithInitialRef is given, the name is resolved immediately (bounded by
// ctx).
func NewProxy(ctx context.Context, o *orb.ORB, name naming.Name, resolver Resolver, store Store, policy Policy, opts ...ProxyOption) (*Proxy, error) {
	p := &Proxy{
		orb:      o,
		name:     name,
		key:      name.String(),
		resolver: resolver,
		store:    store,
		policy:   policy.withDefaults(),
	}
	for _, opt := range opts {
		opt(p)
	}
	p.replay = orb.Caller{
		ORB:     o,
		Recover: p.recoverFrom,
		RetryOn: p.policy.RecoverOn,
		Budget:  p.policy.MaxRecoveries,
		Backoff: p.policy.Backoff,
	}
	if p.ref.IsNil() {
		ref, err := resolver.Resolve(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("ft: initial resolve of %s: %w", name, err)
		}
		p.ref = ref
	}
	if p.store != nil {
		// Adopt any pre-existing checkpoint so our next Put is newer (a
		// previous proxy incarnation may have written some) and the first
		// delta has a base the store actually holds.
		if cp, err := p.store.Get(ctx, p.key); err == nil {
			p.epoch = cp.Epoch
			p.advanceBase(Full(cp.Epoch, bytes.Clone(cp.Data)), captureID{})
		}
	}
	return p, nil
}

// Ref returns the reference currently used.
func (p *Proxy) Ref() orb.ObjectRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ref
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Call performs op through the proxy: forward, checkpoint on success,
// recover and replay on failure. Per-call options — WithDeadline,
// WithPriority and friends — apply to every attempt. It has the same
// shape as orb.Call, so switching a client from the plain stub to the
// proxy is the one-line change the paper advertises.
func (p *Proxy) Call(ctx context.Context, op string, writeArgs func(*cdr.Encoder), readReply func(*cdr.Decoder) error, opts ...orb.CallOption) error {
	sctx, span := obs.StartSpan(ctx, "ft.invoke",
		obs.String("op", op), obs.String("name", p.key))
	var co orb.CallOptions
	if len(opts) > 0 {
		co = orb.NewCallOptions(opts...)
	}
	// A LOCATION_FORWARD is followed within the attempt, so a recovery
	// always starts from the proxy's own reference.
	co.FollowForwards = true
	// mark is allocated only for a marked call, so an unmarked one — every
	// call of a proxy that never checkpoints — pays nothing for the seam.
	var mark *ckptMark
	if p.checkpointDue() {
		// Every attempt sends the same options, so a replay against the
		// recovered server is marked too.
		mark = &ckptMark{reply: giop.ServiceContext{ID: giop.SCCheckpoint}}
		co.RequestContext = giop.ServiceContext{ID: giop.SCCheckpoint, Data: p.baseMark(mark.base[:])}
		co.ReplyContext = &mark.reply
	}
	ref, err := p.replay.Do(sctx, op, p.Ref(), func(ctx context.Context, ref orb.ObjectRef) error {
		return p.orb.CallOpts(ctx, ref, op, writeArgs, readReply, co)
	})
	if err == nil {
		var snap []byte
		if mark != nil {
			snap = mark.reply.Data
		}
		err = p.afterSuccess(sctx, ref, op, mark != nil, snap)
	}
	span.EndErr(err)
	return err
}

// ckptMark is what a marked call carries, in one allocation: the bytes of
// its request mark and the reply context the ORB fills in.
type ckptMark struct {
	reply giop.ServiceContext
	base  [markLen]byte
}

// baseMark writes the request mark — the id of the delta base — into dst.
func (p *Proxy) baseMark(dst []byte) []byte {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	return p.baseID.putMark(dst)
}

// checkpointDue reports whether the call about to be sent is the one
// after which a checkpoint is due, and must therefore ask for the state.
func (p *Proxy) checkpointDue() bool {
	if p.store == nil || p.policy.CheckpointEvery <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sinceCkpt+1 >= p.policy.CheckpointEvery
}

// afterSuccess counts the call and, when it was marked, stores the state
// its reply brought back in snap (the reply's SCCheckpoint data, nil when
// it had none). The cadence counter resets only once a checkpoint is
// stored, so a failed one is retried after the next successful call
// instead of leaving a whole further interval unprotected.
func (p *Proxy) afterSuccess(ctx context.Context, ref orb.ObjectRef, op string, marked bool, snap []byte) error {
	p.mu.Lock()
	p.stats.Calls++
	if p.policy.CheckpointEvery > 0 {
		p.sinceCkpt++
	}
	p.mu.Unlock()
	if !marked {
		return nil
	}
	if err := p.storeSnapshot(ctx, ref, snap); err != nil && p.policy.StrictCheckpoint {
		return fmt.Errorf("ft: post-call checkpoint of %s after %s: %w", p.name, op, err)
	}
	return nil
}

// errNoState is what a marked call's checkpoint fails with when its reply
// came back bare; errBadDelta when its reply is a delta the proxy cannot
// apply to its base (the base moved on meanwhile, or the delta is damaged).
var (
	errNoState  = errors.New("ft: reply carries no checkpoint (servant not wrapped, or it could not serialize its state)")
	errBadDelta = errors.New("ft: reply carries a delta that does not apply to the proxy's base")
)

// storeSnapshot stores the capture that came back on a marked call's reply
// from ref. A capture the servant took before one already stored is
// dropped: the stored one holds every effect it does, so nothing is lost
// and nothing is counted. A delta is validated against the base before
// anything else; it is relayed to the store as it arrived when its base is
// the store's previous epoch, and otherwise applied to a copy of the base
// and put full.
func (p *Proxy) storeSnapshot(ctx context.Context, ref orb.ObjectRef, payload []byte) error {
	id, base, body, ok := decodeReply(payload)
	if !ok {
		p.checkpointFailed()
		return errNoState
	}
	p.ckptMu.Lock()
	if id.inc == p.snap.inc && id.seq <= p.snap.seq {
		p.ckptMu.Unlock()
		return nil
	}
	if base != 0 {
		if _, err := checkDelta(len(p.lastFull), body); err != nil || p.baseID != (captureID{id.inc, base}) {
			p.ckptMu.Unlock()
			p.checkpointFailed()
			return errBadDelta
		}
	}
	p.snap = id
	cp := Full(p.nextEpoch(), body)
	if base != 0 && p.lastEpoch+1 == cp.Epoch {
		cp.Base = p.lastEpoch
	} else if base != 0 {
		cp.Data, _ = applyDelta(p.lastFull, body, false) // checked above
	}
	p.ckptMu.Unlock()
	if err := p.storePut(ctx, ref, cp, id); err != nil {
		return err
	}
	p.mu.Lock()
	p.sinceCkpt = 0
	p.mu.Unlock()
	return nil
}

// checkpointFailed counts a checkpoint that failed before it reached the
// store (storePut counts the ones that fail there).
func (p *Proxy) checkpointFailed() {
	p.mu.Lock()
	p.stats.CheckpointFailures++
	p.mu.Unlock()
}

// nextEpoch allocates the next checkpoint epoch.
func (p *Proxy) nextEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	return p.epoch
}

// advanceBase makes cp the delta base if it is newer than the current one:
// an acked delta patches the base in place, and a full checkpoint's Data
// becomes the base — the caller hands over a buffer nobody else holds. id
// names the capture cp holds, zero for none. The caller knows the store
// holds cp: a put of it was just acked, or a Get returned it.
func (p *Proxy) advanceBase(cp Checkpoint, id captureID) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if cp.Epoch <= p.lastEpoch || cp.IsDelta() && cp.Base != p.lastEpoch {
		return
	}
	if cp.IsDelta() {
		cp.Data, _ = applyDelta(p.lastFull, cp.Data, true) // checked on receipt against this base
	}
	p.lastFull, p.lastEpoch, p.baseID = cp.Data, cp.Epoch, id
}

// storePut writes cp — capture id of the servant at ref, or no capture
// for a zero id — to the store, synchronously: the call does not return
// before the store has it. A delta whose base is not what the store holds
// (replica lag, lost epoch) is materialized into a fresh buffer and
// re-sent full, which always applies. An acked put advances the delta
// base. storePut keeps the checkpoint counters.
func (p *Proxy) storePut(ctx context.Context, ref orb.ObjectRef, cp Checkpoint, id captureID) error {
	ctx, span := obs.StartSpan(ctx, "ft.checkpoint",
		obs.String("name", p.key), obs.String("target", ref.Addr))
	if span != nil {
		span.SetAttr("epoch", fmt.Sprintf("%d", cp.Epoch))
	}
	err := p.store.Put(ctx, p.key, cp)
	wrote := len(cp.Data)
	if err != nil && cp.IsDelta() && errors.Is(err, ErrBadBase) {
		p.ckptMu.Lock()
		full, merr := materialize(cp, p.lastEpoch, p.lastFull, true, false)
		p.ckptMu.Unlock()
		if merr == nil {
			cp = Full(cp.Epoch, full)
			err = p.store.Put(ctx, p.key, cp)
			wrote += len(full)
		}
	}
	span.EndErr(err)
	if err == nil {
		p.advanceBase(cp, id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.stats.CheckpointFailures++
		return err
	}
	p.stats.Checkpoints++
	p.stats.CheckpointBytes += uint64(wrote)
	if cp.IsDelta() {
		p.stats.DeltaCheckpoints++
	}
	return nil
}

// recoverFrom performs the paper's recovery sequence starting from the
// dead reference: drop the dead offer from the naming service, resolve a
// fresh reference (the load-aware naming service places the replacement),
// and restore the last checkpoint into it. It is the replay loop's
// Recover hook: the call is replayed against the reference it returns, so
// each successful return counts a replay.
func (p *Proxy) recoverFrom(ctx context.Context, dead orb.ObjectRef) (orb.ObjectRef, error) {
	p.recoverMu.Lock()
	defer p.recoverMu.Unlock()

	// Another goroutine may have completed recovery while we waited for
	// the lock; reuse its fresh reference instead of recovering twice.
	p.mu.Lock()
	if cur := p.ref; cur != dead {
		p.stats.Replays++
		p.mu.Unlock()
		return cur, nil
	}
	p.mu.Unlock()

	ctx, span := obs.StartSpan(ctx, "ft.recover",
		obs.String("name", p.key), obs.String("dead", dead.Addr))
	if pr, ok := p.resolver.(PushedResolver); ok {
		// Push-maintained membership: sideline the dead member locally and
		// skip the unbind RPC — the resolve below is local too, so this
		// recovery touches the naming service zero times.
		pr.MarkDead(dead)
		span.AddEvent("marked_dead_local", obs.String("addr", dead.Addr))
	} else if p.unbinder != nil {
		// Best effort: the offer may already be gone.
		_ = p.unbinder.UnbindOffer(ctx, p.name, dead)
		span.AddEvent("unbound_dead_offer", obs.String("addr", dead.Addr))
	}
	fresh, err := p.resolveFresh(ctx)
	if err != nil {
		span.EndErr(err)
		return orb.ObjectRef{}, err
	}
	span.SetAttr("fresh", fresh.Addr)
	if err := p.restoreInto(ctx, fresh); err != nil {
		span.EndErr(err)
		return orb.ObjectRef{}, err
	}
	p.mu.Lock()
	p.ref = fresh
	p.stats.Recoveries++
	p.stats.Replays++
	p.mu.Unlock()
	span.End()
	return fresh, nil
}

// resolveFresh re-resolves the service name under its own span, so the
// trace shows which replacement host the naming service picked.
func (p *Proxy) resolveFresh(ctx context.Context) (orb.ObjectRef, error) {
	ctx, span := obs.StartSpan(ctx, "ft.resolve", obs.String("name", p.key))
	fresh, err := p.resolver.Resolve(ctx, p.name)
	if err != nil {
		err = fmt.Errorf("re-resolve %s: %w", p.name, err)
		span.EndErr(err)
		return orb.ObjectRef{}, err
	}
	span.SetAttr("addr", fresh.Addr)
	span.End()
	return fresh, nil
}

// restoreInto pushes the newest stored checkpoint into ref, the recovery
// of a server that died holding the state. A missing checkpoint is fine
// (stateless service, or no call completed yet).
func (p *Proxy) restoreInto(ctx context.Context, ref orb.ObjectRef) error {
	if p.store == nil {
		return nil
	}
	ctx, span := obs.StartSpan(ctx, "ft.restore",
		obs.String("name", p.key), obs.String("target", ref.Addr))
	cp, err := p.store.Get(ctx, p.key)
	if errors.Is(err, ErrNoCheckpoint) {
		span.SetAttr("no_checkpoint", "true")
		span.End()
		return nil
	}
	if err != nil {
		err = fmt.Errorf("fetch checkpoint for %s: %w", p.name, err)
		span.EndErr(err)
		return err
	}
	span.SetAttr("epoch", fmt.Sprintf("%d", cp.Epoch))
	if err := PushRestore(ctx, p.orb, ref, cp.Data); err != nil {
		err = fmt.Errorf("restore %s into %v: %w", p.name, ref, err)
		span.EndErr(err)
		return err
	}
	// The store holds this snapshot, so it becomes the delta base — a copy,
	// since a quorum store's read-repair may still be sending cp.Data. The
	// restored servant answers the next mark with its full state.
	p.advanceBase(Full(cp.Epoch, bytes.Clone(cp.Data)), captureID{})
	p.mu.Lock()
	if cp.Epoch > p.epoch {
		p.epoch = cp.Epoch
	}
	p.mu.Unlock()
	span.End()
	return nil
}

// Notify forwards a oneway operation to the current reference. Oneway
// calls carry no reply, so failure detection — and therefore recovery —
// does not apply; the call is best-effort by construction.
func (p *Proxy) Notify(ctx context.Context, op string, writeArgs func(*cdr.Encoder)) error {
	return p.orb.Notify(ctx, p.Ref(), op, writeArgs)
}

// Migrate moves the service state to target: checkpoint the current
// server, restore into target, and switch the proxy over. This is the
// paper's observation that a checkpoint/restore-capable service "can in
// principle be migrated from one host to another ... also due to a
// changing load situation".
func (p *Proxy) Migrate(ctx context.Context, target orb.ObjectRef) (err error) {
	cur := p.Ref()
	ctx, span := obs.StartSpan(ctx, "ft.migrate",
		obs.String("name", p.key),
		obs.String("from", cur.Addr), obs.String("to", target.Addr))
	defer func() { span.EndErr(err) }()
	if p.store == nil {
		return errors.New("ft: migrate checkpoint: no checkpoint store configured")
	}
	// The source is alive and nobody is calling it on our behalf, so its
	// state is read with a round trip of its own.
	state, err := FetchCheckpoint(ctx, p.orb, cur)
	if err != nil {
		p.checkpointFailed()
		return fmt.Errorf("ft: migrate checkpoint: %w", err)
	}
	if err := p.storePut(ctx, cur, Full(p.nextEpoch(), state), captureID{}); err != nil {
		return fmt.Errorf("ft: migrate checkpoint: %w", err)
	}
	// The store now holds state, so the target gets the bytes in hand
	// rather than a read of them back.
	if err := PushRestore(ctx, p.orb, target, state); err != nil {
		return fmt.Errorf("ft: migrate restore: %w", err)
	}
	p.mu.Lock()
	p.ref = target
	p.mu.Unlock()
	return nil
}

// Seed installs state as the service's authoritative current state: it
// pushes the blob into the live servant and stores it as the newest
// checkpoint epoch, so both the running object and any later recovery
// restore start from exactly this state. The elastic manager uses it to
// reset workers at a re-decomposition boundary — stale warm-start state
// from the previous topology must not leak into the new segment, whether
// through the live servant or through a crash-restore of an old epoch.
func (p *Proxy) Seed(ctx context.Context, state []byte) (err error) {
	cur := p.Ref()
	ctx, span := obs.StartSpan(ctx, "ft.seed",
		obs.String("name", p.key), obs.String("target", cur.Addr))
	defer func() { span.EndErr(err) }()
	if err := PushRestore(ctx, p.orb, cur, state); err != nil {
		return fmt.Errorf("ft: seed %s into %v: %w", p.name, cur, err)
	}
	if p.store == nil {
		return nil
	}
	epoch := p.nextEpoch()
	span.SetAttr("epoch", fmt.Sprintf("%d", epoch))
	// A copy: the put makes it the proxy's delta base, and the caller may
	// reuse state (the elastic manager seeds every worker from one buffer).
	return p.storePut(ctx, cur, Full(epoch, bytes.Clone(state)), captureID{})
}
