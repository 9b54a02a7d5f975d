package naming

import (
	"sort"
	"sync"
	"time"

	"repro/internal/orb"
)

// BindingType distinguishes what a name is bound to.
type BindingType uint32

// Binding types.
const (
	BindObject  BindingType = iota // a single object reference
	BindContext                    // a sub-context
	BindGroup                      // a group of offers (load-distribution extension)
)

// Offer is one member of a group binding: an object reference plus the
// logical host it runs on (the information the Winner selector needs).
// Offers may carry a lease: a TTL the registering server must keep
// renewing, and the absolute instant the current lease runs out. A zero
// LeaseTTL means the offer never expires (the pre-lease behaviour).
type Offer struct {
	Ref  orb.ObjectRef
	Host string
	// LeaseTTL is the renewal interval granted at bind/renew time (0: no
	// lease).
	LeaseTTL time.Duration
	// Expires is when the lease runs out (zero: no lease). Maintained by
	// the registry; ignored on input to BindOffer.
	Expires time.Time
}

// expired reports whether the offer's lease has run out at t.
func (o Offer) expired(t time.Time) bool {
	return !o.Expires.IsZero() && t.After(o.Expires)
}

// Binding summarises one entry of a context listing.
type Binding struct {
	Name Name // single-component name within the listed context
	Type BindingType
}

// User-exception repository ids raised by the service (CosNaming analogue).
const (
	ExNotFound     = "IDL:repro/CosNaming/NotFound:1.0"
	ExAlreadyBound = "IDL:repro/CosNaming/AlreadyBound:1.0"
	ExNotContext   = "IDL:repro/CosNaming/NotContext:1.0"
	ExInvalidName  = "IDL:repro/CosNaming/InvalidName:1.0"
	ExNoOffer      = "IDL:repro/CosNaming/NoOffer:1.0"
)

func errNotFound(n Name) error {
	return &orb.UserException{RepoID: ExNotFound, Detail: n.String()}
}
func errAlreadyBound(n Name) error {
	return &orb.UserException{RepoID: ExAlreadyBound, Detail: n.String()}
}
func errNotContext(n Name) error {
	return &orb.UserException{RepoID: ExNotContext, Detail: n.String()}
}
func errInvalidName(reason string) error {
	return &orb.UserException{RepoID: ExInvalidName, Detail: reason}
}

// entry is one slot in a context: exactly one of ref/ctx/group is set
// according to typ.
type entry struct {
	typ   BindingType
	ref   orb.ObjectRef
	ctx   *contextNode
	group []Offer
}

// contextNode is one naming context in the tree.
type contextNode struct {
	entries map[string]*entry
}

func newContextNode() *contextNode {
	return &contextNode{entries: make(map[string]*entry)}
}

// key flattens a component for map lookup.
func key(c Component) string { return c.ID + "\x00" + c.Kind }

// Registry is the in-memory naming tree. It is the state behind the
// naming service servant but is also usable in-process. All methods are
// safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	root *contextNode
	// epoch counts mutations monotonically. Replicas ship snapshots
	// stamped with their epoch and adopt only strictly newer state
	// (last-writer-wins gossip), so a restarted or lagging replica never
	// clobbers fresher bindings.
	epoch uint64
	// adopts counts snapshots adopted from peers (replication metric).
	adopts uint64
	// now is the lease clock (time.Now outside tests).
	now func() time.Time
	// watchNotify, when set, observes every membership-changing mutation
	// (bind, rebind, unbind, offer bound/unbound/evicted, snapshot
	// adoption). It is called under the registry lock, so implementations
	// must only record the name and return (the Hub records a dirty name
	// and kicks its worker). A nil Name means "everything may have
	// changed" (snapshot replaced the tree).
	watchNotify func(n Name)
	// offerObserver, when set, observes individual offer lifecycle
	// transitions (bound=true on BindOffer, bound=false on UnbindOffer and
	// sweeper eviction). Like watchNotify it runs under the registry lock
	// and must only record and return; a cluster.OfferTracker turns these
	// into host-level membership Join/Leave events.
	offerObserver func(n Name, o Offer, bound bool)
}

// NewRegistry creates an empty naming tree.
func NewRegistry() *Registry { return &Registry{root: newContextNode(), now: time.Now} }

// SetClock overrides the lease clock (tests).
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// SetWatchNotify installs the mutation observer the push Hub feeds on.
// fn runs under the registry lock on every membership-changing mutation
// and must not call back into the registry; a nil Name argument means
// the whole tree may have changed (snapshot adoption). Lease renewals do
// NOT notify: membership is unchanged and pushing every renewal would
// turn the heartbeat traffic into a push storm.
func (r *Registry) SetWatchNotify(fn func(n Name)) {
	r.mu.Lock()
	r.watchNotify = fn
	r.mu.Unlock()
}

// SetOfferObserver installs the offer lifecycle observer. fn runs under
// the registry lock on every BindOffer, UnbindOffer and sweeper eviction
// and must not call back into the registry. Snapshot adoption does not
// feed the observer: replicated state changes wholesale and the adopting
// replica is not the membership authority for it.
func (r *Registry) SetOfferObserver(fn func(n Name, o Offer, bound bool)) {
	r.mu.Lock()
	r.offerObserver = fn
	r.mu.Unlock()
}

// notifyLocked forwards a mutation to the watch observer. Callers hold
// r.mu.
func (r *Registry) notifyLocked(n Name) {
	if r.watchNotify != nil {
		r.watchNotify(n)
	}
}

// observeOfferLocked forwards an offer transition to the offer observer.
// Callers hold r.mu.
func (r *Registry) observeOfferLocked(n Name, o Offer, bound bool) {
	if r.offerObserver != nil {
		r.offerObserver(n, o, bound)
	}
}

// Epoch returns the registry's mutation counter.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// SnapshotsAdopted returns how many peer snapshots this registry has
// adopted (see AdoptSnapshot).
func (r *Registry) SnapshotsAdopted() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.adopts
}

// walk descends to the context holding the last component of n, creating
// nothing. Returns the node and the final component.
func (r *Registry) walk(n Name) (*contextNode, Component, error) {
	node := r.root
	for i := 0; i < len(n)-1; i++ {
		e, ok := node.entries[key(n[i])]
		if !ok {
			return nil, Component{}, errNotFound(n[:i+1])
		}
		if e.typ != BindContext {
			return nil, Component{}, errNotContext(n[:i+1])
		}
		node = e.ctx
	}
	return node, n[len(n)-1], nil
}

// Bind binds ref under n; it fails with AlreadyBound if n is taken.
func (r *Registry) Bind(n Name, ref orb.ObjectRef) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	if _, ok := node.entries[key(last)]; ok {
		return errAlreadyBound(n)
	}
	node.entries[key(last)] = &entry{typ: BindObject, ref: ref}
	r.epoch++
	r.notifyLocked(n)
	return nil
}

// Rebind binds ref under n, replacing any existing object binding.
// Rebinding over a context or group fails with NotContext/AlreadyBound
// respectively, so structural bindings are not silently destroyed.
func (r *Registry) Rebind(n Name, ref orb.ObjectRef) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	if e, ok := node.entries[key(last)]; ok {
		switch e.typ {
		case BindContext:
			return errNotContext(n)
		case BindGroup:
			return errAlreadyBound(n)
		}
	}
	node.entries[key(last)] = &entry{typ: BindObject, ref: ref}
	r.epoch++
	r.notifyLocked(n)
	return nil
}

// BindNewContext creates (and binds) a fresh sub-context at n.
func (r *Registry) BindNewContext(n Name) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	if _, ok := node.entries[key(last)]; ok {
		return errAlreadyBound(n)
	}
	node.entries[key(last)] = &entry{typ: BindContext, ctx: newContextNode()}
	r.epoch++
	return nil
}

// Unbind removes the binding at n (object, context or group).
func (r *Registry) Unbind(n Name) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	if _, ok := node.entries[key(last)]; !ok {
		return errNotFound(n)
	}
	delete(node.entries, key(last))
	r.epoch++
	r.notifyLocked(n)
	return nil
}

// ResolveObject resolves n to a single object binding.
func (r *Registry) ResolveObject(n Name) (orb.ObjectRef, error) {
	if err := n.Validate(); err != nil {
		return orb.ObjectRef{}, errInvalidName(err.Error())
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	node, last, err := r.walk(n)
	if err != nil {
		return orb.ObjectRef{}, err
	}
	e, ok := node.entries[key(last)]
	if !ok {
		return orb.ObjectRef{}, errNotFound(n)
	}
	if e.typ != BindObject {
		return orb.ObjectRef{}, errNotContext(n)
	}
	return e.ref, nil
}

// BindOffer adds an offer to the group binding at n, creating the group if
// n is unbound. Adding to an object/context binding fails. When
// offer.LeaseTTL is positive the offer is leased: the registry stamps its
// expiry and the server must RenewLease before it runs out or the sweeper
// unbinds it.
func (r *Registry) BindOffer(n Name, offer Offer) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if offer.LeaseTTL > 0 {
		offer.Expires = r.now().Add(offer.LeaseTTL)
	} else {
		offer.LeaseTTL, offer.Expires = 0, time.Time{}
	}
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	e, ok := node.entries[key(last)]
	if !ok {
		node.entries[key(last)] = &entry{typ: BindGroup, group: []Offer{offer}}
		r.epoch++
		r.notifyLocked(n)
		r.observeOfferLocked(n, offer, true)
		return nil
	}
	if e.typ != BindGroup {
		return errAlreadyBound(n)
	}
	for _, o := range e.group {
		if o.Ref == offer.Ref {
			return errAlreadyBound(n)
		}
	}
	e.group = append(e.group, offer)
	r.epoch++
	r.notifyLocked(n)
	r.observeOfferLocked(n, offer, true)
	return nil
}

// RenewLease extends the lease of the offer with reference ref in the
// group at n. A non-positive ttl clears the lease (the offer becomes
// permanent). Renewing an offer that is not bound — including one the
// sweeper already evicted — fails with NotFound, which tells the server
// to re-register via BindOffer.
func (r *Registry) RenewLease(n Name, ref orb.ObjectRef, ttl time.Duration) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	e, ok := node.entries[key(last)]
	if !ok || e.typ != BindGroup {
		return errNotFound(n)
	}
	for i := range e.group {
		if e.group[i].Ref == ref {
			if ttl > 0 {
				e.group[i].LeaseTTL = ttl
				e.group[i].Expires = r.now().Add(ttl)
			} else {
				e.group[i].LeaseTTL = 0
				e.group[i].Expires = time.Time{}
			}
			r.epoch++
			return nil
		}
	}
	return errNotFound(n)
}

// ExpiredOffer reports one offer the sweeper evicted.
type ExpiredOffer struct {
	Name  Name
	Offer Offer
}

// ExpireOffers removes every offer whose lease has run out, removing
// groups that become empty, and returns what was evicted. It is the
// sweeper's step function.
func (r *Registry) ExpireOffers() []ExpiredOffer {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var evicted []ExpiredOffer
	expireNode(r.root, nil, now, &evicted)
	if len(evicted) > 0 {
		r.epoch++
		seen := make(map[string]bool, len(evicted))
		for _, ev := range evicted {
			if k := ev.Name.String(); !seen[k] {
				seen[k] = true
				r.notifyLocked(ev.Name)
			}
			r.observeOfferLocked(ev.Name, ev.Offer, false)
		}
	}
	return evicted
}

// expireNode walks the tree collecting and removing expired offers.
func expireNode(node *contextNode, prefix Name, now time.Time, out *[]ExpiredOffer) {
	for k, e := range node.entries {
		id, kind, _ := splitKey(k)
		name := append(append(Name{}, prefix...), Component{ID: id, Kind: kind})
		switch e.typ {
		case BindContext:
			expireNode(e.ctx, name, now, out)
		case BindGroup:
			kept := e.group[:0]
			for _, o := range e.group {
				if o.expired(now) {
					*out = append(*out, ExpiredOffer{Name: name, Offer: o})
				} else {
					kept = append(kept, o)
				}
			}
			e.group = kept
			if len(e.group) == 0 {
				delete(node.entries, k)
			}
		}
	}
}

// UnbindOffer removes the offer with the given reference from the group at
// n. Removing the last offer removes the group binding itself.
func (r *Registry) UnbindOffer(n Name, ref orb.ObjectRef) error {
	if err := n.Validate(); err != nil {
		return errInvalidName(err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	node, last, err := r.walk(n)
	if err != nil {
		return err
	}
	e, ok := node.entries[key(last)]
	if !ok || e.typ != BindGroup {
		return errNotFound(n)
	}
	for i, o := range e.group {
		if o.Ref == ref {
			e.group = append(e.group[:i], e.group[i+1:]...)
			if len(e.group) == 0 {
				delete(node.entries, key(last))
			}
			r.epoch++
			r.notifyLocked(n)
			r.observeOfferLocked(n, o, false)
			return nil
		}
	}
	return errNotFound(n)
}

// Offers returns a copy of the group bound at n. A single object binding
// is returned as a one-offer group, so group-aware resolvers work
// uniformly over both binding styles.
func (r *Registry) Offers(n Name) ([]Offer, error) {
	if err := n.Validate(); err != nil {
		return nil, errInvalidName(err.Error())
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	node, last, err := r.walk(n)
	if err != nil {
		return nil, err
	}
	e, ok := node.entries[key(last)]
	if !ok {
		return nil, errNotFound(n)
	}
	switch e.typ {
	case BindObject:
		return []Offer{{Ref: e.ref}}, nil
	case BindGroup:
		out := make([]Offer, len(e.group))
		copy(out, e.group)
		return out, nil
	default:
		return nil, errNotContext(n)
	}
}

// OfferLease pairs an offer with how much of its lease is left: the
// operator view behind `nsadmin leases`.
type OfferLease struct {
	Offer Offer
	// Remaining is the time until the lease runs out (zero for leaseless
	// offers; negative when expired but not yet swept).
	Remaining time.Duration
}

// Leases returns the offers at n with their remaining lease time.
func (r *Registry) Leases(n Name) ([]OfferLease, error) {
	offers, err := r.Offers(n)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	now := r.now()
	r.mu.RUnlock()
	out := make([]OfferLease, 0, len(offers))
	for _, o := range offers {
		l := OfferLease{Offer: o}
		if !o.Expires.IsZero() {
			l.Remaining = o.Expires.Sub(now)
		}
		out = append(out, l)
	}
	return out, nil
}

// LiveOffers is Offers minus offers whose lease has already run out:
// what resolve hands to the selector. Expired-but-unswept offers are
// invisible to clients even before the sweeper removes them, so a lease
// that lapses between sweeps cannot leak a dead reference. A group whose
// offers are all expired resolves as NotFound.
func (r *Registry) LiveOffers(n Name) ([]Offer, error) {
	offers, err := r.Offers(n)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	now := r.now()
	r.mu.RUnlock()
	live := offers[:0]
	for _, o := range offers {
		if !o.expired(now) {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		return nil, errNotFound(n)
	}
	return live, nil
}

// WatchView returns the live membership at n together with the registry
// epoch, both read under a single lock acquisition. That atomicity is
// what makes the push protocol's epoch guard sound: membership read in
// one critical section can never be stamped with an epoch from a later
// one (a stale view with a newer epoch would be kept by clients
// forever). Unlike LiveOffers, an absent or fully-expired name is not an
// error here — it is an empty membership, which is exactly what a
// watcher must learn when the whole group dies. Object bindings show as
// a single leaseless member, mirroring Offers.
func (r *Registry) WatchView(n Name) ([]OfferLease, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	epoch := r.epoch
	if n.Validate() != nil {
		return nil, epoch
	}
	node, last, err := r.walk(n)
	if err != nil {
		return nil, epoch
	}
	e, ok := node.entries[key(last)]
	if !ok {
		return nil, epoch
	}
	now := r.now()
	var out []OfferLease
	switch e.typ {
	case BindObject:
		out = []OfferLease{{Offer: Offer{Ref: e.ref}}}
	case BindGroup:
		for _, o := range e.group {
			if o.expired(now) {
				continue
			}
			l := OfferLease{Offer: o}
			if !o.Expires.IsZero() {
				l.Remaining = o.Expires.Sub(now)
			}
			out = append(out, l)
		}
	}
	return out, epoch
}

// List returns the bindings of the context at n (nil n lists the root),
// sorted by name for deterministic output.
func (r *Registry) List(n Name) ([]Binding, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	node := r.root
	if len(n) > 0 {
		parent, last, err := r.walk(n)
		if err != nil {
			return nil, err
		}
		e, ok := parent.entries[key(last)]
		if !ok {
			return nil, errNotFound(n)
		}
		if e.typ != BindContext {
			return nil, errNotContext(n)
		}
		node = e.ctx
	}
	out := make([]Binding, 0, len(node.entries))
	for k, e := range node.entries {
		id, kind, _ := splitKey(k)
		out = append(out, Binding{Name: Name{{ID: id, Kind: kind}}, Type: e.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name.String() < out[j].Name.String() })
	return out, nil
}

func splitKey(k string) (id, kind string, ok bool) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:], true
		}
	}
	return k, "", false
}
