package naming

import (
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
)

// TypeID is the repository id of the naming service interface.
const TypeID = "IDL:repro/CosNaming/NamingContext:1.0"

// DefaultKey is the conventional object key of a root naming context
// ("NameService" initial reference analogue).
const DefaultKey = "NameService"

// Selector chooses one offer from a group binding at resolve time. The
// plain selector reproduces an unmodified naming service; the Winner
// selector in internal/core implements the paper's load distribution.
// Implementations must be safe for concurrent use.
type Selector interface {
	// Select picks an offer for name. It is only called with a non-empty
	// offer slice.
	Select(name Name, offers []Offer) (Offer, error)
}

// SelectorFunc adapts a function to the Selector interface.
type SelectorFunc func(name Name, offers []Offer) (Offer, error)

// Select implements Selector.
func (f SelectorFunc) Select(name Name, offers []Offer) (Offer, error) { return f(name, offers) }

// Decision explains why a selector chose an offer, for tracing.
type Decision struct {
	// Reason is a short stable token ("winner-best", "round-robin",
	// "fallback-no-hosts", ...) recorded on the resolve span.
	Reason string
}

// ExplainingSelector is an optional Selector extension: selectors that
// can say why a host won implement it, and the naming servant attaches
// the reason to the live trace span on every group resolve.
type ExplainingSelector interface {
	Selector
	// SelectExplain is Select plus the reasoning behind the choice.
	SelectExplain(name Name, offers []Offer) (Offer, Decision, error)
}

// FirstSelector always returns the first (oldest) offer: the most naive
// baseline — every client lands on the registration-order head.
func FirstSelector() Selector {
	return SelectorFunc(func(_ Name, offers []Offer) (Offer, error) {
		return offers[0], nil
	})
}

// Servant exposes a Registry as an ORB service. Group resolution is
// delegated to the configured Selector (FirstSelector when nil).
type Servant struct {
	reg *Registry
	sel Selector
	hub *Hub

	resolves atomic.Uint64
	watchReq atomic.Uint64
}

// NewServant wraps reg; sel may be nil for the plain baseline.
func NewServant(reg *Registry, sel Selector) *Servant {
	if sel == nil {
		sel = FirstSelector()
	}
	return &Servant{reg: reg, sel: sel}
}

// Registry returns the underlying naming tree.
func (s *Servant) Registry() *Registry { return s.reg }

// SetHub enables the watch/unwatch/list_watches operations, serving the
// push-based invalidation channel through h. Without a hub those
// operations fail with BAD_OPERATION (pre-subscription servers).
func (s *Servant) SetHub(h *Hub) { s.hub = h }

// Resolves returns how many resolve requests this servant has served —
// the number the push protocol exists to keep flat under failover.
func (s *Servant) Resolves() uint64 { return s.resolves.Load() }

// WatchRequests returns how many watch registrations this servant has
// served (initial subscriptions plus re-watches).
func (s *Servant) WatchRequests() uint64 { return s.watchReq.Load() }

// TypeID implements orb.Servant.
func (s *Servant) TypeID() string { return TypeID }

// Operation names of the naming service wire contract.
const (
	opBind           = "bind"
	opRebind         = "rebind"
	opUnbind         = "unbind"
	opResolve        = "resolve"
	opBindNewContext = "bind_new_context"
	opList           = "list"
	opBindOffer      = "bind_offer"
	opUnbindOffer    = "unbind_offer"
	opListOffers     = "list_offers"
	opRenewLease     = "renew_lease"
	opListLeases     = "list_leases"
	opSyncState      = "sync_state"
)

// Invoke implements orb.Servant.
func (s *Servant) Invoke(sctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case opBind, opRebind:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		var ref orb.ObjectRef
		if err := ref.UnmarshalCDR(in); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		if op == opBind {
			return s.reg.Bind(name, ref)
		}
		return s.reg.Rebind(name, ref)

	case opUnbind:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		return s.reg.Unbind(name)

	case opResolve:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		s.resolves.Add(1)
		chosen, err := s.resolve(sctx, name)
		if err != nil {
			return err
		}
		chosen.Ref.MarshalCDR(out)
		// Trailing lease TTL: pre-lease clients stop reading after the
		// reference (reply decoding tolerates trailing bytes); lease-aware
		// clients (ResolveLease) use it to age their degraded-mode cache.
		out.PutInt64(int64(chosen.LeaseTTL))
		return nil

	case opBindNewContext:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		return s.reg.BindNewContext(name)

	case opList:
		var name Name
		if n := in.GetUint32(); n > 0 && in.Err() == nil {
			// Re-decode with the count already consumed: rebuild by hand.
			name = make(Name, 0, n)
			for i := uint32(0); i < n; i++ {
				name = append(name, Component{ID: in.GetString(), Kind: in.GetString()})
			}
		}
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		bindings, err := s.reg.List(name)
		if err != nil {
			return err
		}
		out.PutUint32(uint32(len(bindings)))
		for _, b := range bindings {
			b.Name.MarshalCDR(out)
			out.PutUint32(uint32(b.Type))
		}
		return nil

	case opBindOffer:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		var ref orb.ObjectRef
		if err := ref.UnmarshalCDR(in); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		host := in.GetString()
		ttl := time.Duration(in.GetInt64())
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		return s.reg.BindOffer(name, Offer{Ref: ref, Host: host, LeaseTTL: ttl})

	case opRenewLease:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		var ref orb.ObjectRef
		if err := ref.UnmarshalCDR(in); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		ttl := time.Duration(in.GetInt64())
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		return s.reg.RenewLease(name, ref, ttl)

	case opListLeases:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		leases, err := s.reg.Leases(name)
		if err != nil {
			return err
		}
		putLeases(out, leases)
		return nil

	case opSyncState:
		snap := in.GetBytes()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		adopted, err := s.reg.AdoptSnapshot(snap)
		if err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		out.PutBool(adopted)
		out.PutUint64(s.reg.Epoch())
		return nil

	case opUnbindOffer:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		var ref orb.ObjectRef
		if err := ref.UnmarshalCDR(in); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		return s.reg.UnbindOffer(name, ref)

	case opListOffers:
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		offers, err := s.reg.Offers(name)
		if err != nil {
			return err
		}
		out.PutUint32(uint32(len(offers)))
		for _, o := range offers {
			o.Ref.MarshalCDR(out)
			out.PutString(o.Host)
		}
		return nil

	case opWatch:
		if s.hub == nil {
			return orb.BadOperation(op)
		}
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		var callback orb.ObjectRef
		if err := callback.UnmarshalCDR(in); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		sinceEpoch := in.GetUint64()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		s.watchReq.Add(1)
		leases, epoch := s.hub.Watch(name, callback, sinceEpoch)
		obs.SpanFromContext(sctx.Context()).AddEvent("naming.watched",
			obs.String("name", name.String()), obs.String("callback", callback.Addr))
		out.PutUint64(epoch)
		putLeases(out, leases)
		return nil

	case opUnwatch:
		if s.hub == nil {
			return orb.BadOperation(op)
		}
		name, err := DecodeName(in)
		if err != nil {
			return errInvalidName(err.Error())
		}
		var callback orb.ObjectRef
		if err := callback.UnmarshalCDR(in); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		s.hub.Unwatch(name, callback)
		return nil

	case opListWatches:
		if s.hub == nil {
			return orb.BadOperation(op)
		}
		infos := s.hub.Watches()
		out.PutUint32(uint32(len(infos)))
		for _, wi := range infos {
			wi.Name.MarshalCDR(out)
			out.PutUint32(uint32(wi.Watchers))
		}
		return nil

	default:
		return orb.BadOperation(op)
	}
}

// resolve implements the load-distribution-aware resolve: object bindings
// return directly; group bindings go through the Selector, seeing only
// offers whose lease (if any) is still live. The winning host and the
// selector's reasoning land on the dispatch's trace span.
func (s *Servant) resolve(sctx *orb.ServerContext, name Name) (Offer, error) {
	offers, err := s.reg.LiveOffers(name)
	if err != nil {
		return Offer{}, err
	}
	span := obs.SpanFromContext(sctx.Context())
	if len(offers) == 1 {
		span.AddEvent("naming.selected",
			obs.String("name", name.String()), obs.String("host", offers[0].Host),
			obs.String("addr", offers[0].Ref.Addr), obs.String("reason", ReasonSingleOffer))
		return offers[0], nil
	}
	var chosen Offer
	decision := Decision{Reason: "selector"}
	if ex, ok := s.sel.(ExplainingSelector); ok {
		chosen, decision, err = ex.SelectExplain(name, offers)
	} else {
		chosen, err = s.sel.Select(name, offers)
	}
	if err != nil {
		return Offer{}, err
	}
	span.AddEvent("naming.selected",
		obs.String("name", name.String()), obs.String("host", chosen.Host),
		obs.String("addr", chosen.Ref.Addr), obs.String("reason", decision.Reason))
	return chosen, nil
}
