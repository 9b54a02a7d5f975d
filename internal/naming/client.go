package naming

import (
	"context"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// Client is the typed client stub for the naming service (the generated
// CosNaming stub analogue). All methods are remote calls, and all of them
// go through one call function (call): on a client built by NewClient
// that is a single call to the one reference; on a client built by
// NewHAClient it is the failover loop over the replicas (haclient.go).
// Either way the call follows LOCATION_FORWARD replies.
type Client struct {
	orb  *orb.ORB
	ref  orb.ObjectRef
	opts orb.CallOptions

	// replicas is the failover layer; it is empty on a NewClient client.
	replicas
}

// NewClient builds a stub for the naming service at ref.
func NewClient(o *orb.ORB, ref orb.ObjectRef) *Client {
	return &Client{orb: o, ref: ref, opts: orb.CallOptions{FollowForwards: true}}
}

// SetCallOptions sets default per-call options (QoS class, tenant id,
// deadline, ...) applied to every operation this stub issues. Call during
// setup, before the stub is shared across goroutines.
func (c *Client) SetCallOptions(opts ...orb.CallOption) {
	c.opts = orb.NewCallOptions(opts...)
	c.opts.FollowForwards = true
}

// Ref returns the service's object reference: on a replicated client,
// the current primary's.
func (c *Client) Ref() orb.ObjectRef {
	if len(c.endpoints) == 0 {
		return c.ref
	}
	return c.endpoints[int(c.primary.Load())%len(c.endpoints)].ref
}

// call issues op against the naming service.
func (c *Client) call(ctx context.Context, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error {
	if len(c.endpoints) == 0 {
		return c.orb.CallOpts(ctx, c.ref, op, args, reply, c.opts)
	}
	return c.failover(ctx, op, args, reply)
}

// Bind binds ref under name.
func (c *Client) Bind(ctx context.Context, name Name, ref orb.ObjectRef) error {
	return c.call(ctx, opBind, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		ref.MarshalCDR(e)
	}, nil)
}

// Rebind binds ref under name, replacing an existing object binding.
func (c *Client) Rebind(ctx context.Context, name Name, ref orb.ObjectRef) error {
	return c.call(ctx, opRebind, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		ref.MarshalCDR(e)
	}, nil)
}

// Unbind removes the binding at name.
func (c *Client) Unbind(ctx context.Context, name Name) error {
	return c.call(ctx, opUnbind, name.MarshalCDR, nil)
}

// Resolve returns the reference bound at name. For group bindings the
// service's selector (plain or Winner-driven) picks the offer — this is
// the call whose behaviour the paper changes transparently. A replicated
// client remembers each answer and, with every replica down, serves the
// last one in degraded mode (see NewHAClient).
func (c *Client) Resolve(ctx context.Context, name Name) (orb.ObjectRef, error) {
	ref, ttl, err := c.ResolveLease(ctx, name)
	if len(c.endpoints) == 0 {
		return ref, err
	}
	return c.degradedResolve(name, ref, ttl, err)
}

// ResolveLease is Resolve plus the chosen offer's lease TTL (zero for
// leaseless offers, and when talking to a pre-lease server whose reply
// lacks the trailing field). Cache layers use the TTL to age cached
// references instead of serving them silently forever.
func (c *Client) ResolveLease(ctx context.Context, name Name) (orb.ObjectRef, time.Duration, error) {
	var ref orb.ObjectRef
	var ttl time.Duration
	err := c.call(ctx, opResolve,
		name.MarshalCDR,
		func(d *cdr.Decoder) error {
			if err := ref.UnmarshalCDR(d); err != nil {
				return err
			}
			if d.Remaining() >= 8 {
				ttl = time.Duration(d.GetInt64())
			}
			return d.Err()
		})
	return ref, ttl, err
}

// BindNewContext creates a sub-context at name.
func (c *Client) BindNewContext(ctx context.Context, name Name) error {
	return c.call(ctx, opBindNewContext, name.MarshalCDR, nil)
}

// List returns the bindings in the context at name (nil for the root).
func (c *Client) List(ctx context.Context, name Name) ([]Binding, error) {
	var out []Binding
	err := c.call(ctx, opList,
		name.MarshalCDR,
		func(d *cdr.Decoder) error {
			n := d.GetUint32()
			if n > 1<<20 {
				return &orb.SystemException{Kind: orb.ExMarshal, Detail: "binding list too long"}
			}
			out = make([]Binding, 0, n)
			for i := uint32(0); i < n; i++ {
				bn, err := DecodeName(d)
				if err != nil {
					return err
				}
				out = append(out, Binding{Name: bn, Type: BindingType(d.GetUint32())})
			}
			return d.Err()
		})
	return out, err
}

// BindOffer adds (ref, host) to the group binding at name, creating the
// group if absent. Servers on each host of a NOW register their offers
// this way. The offer has no lease — it stays bound until unbound.
func (c *Client) BindOffer(ctx context.Context, name Name, ref orb.ObjectRef, host string) error {
	return c.BindOfferLease(ctx, name, ref, host, 0)
}

// BindOfferLease is BindOffer with a lease: when ttl is positive the
// server must call RenewLease before it runs out or the registry's
// sweeper unbinds the offer (see StartLeaseRenewer for the helper that
// does this automatically).
func (c *Client) BindOfferLease(ctx context.Context, name Name, ref orb.ObjectRef, host string, ttl time.Duration) error {
	return c.call(ctx, opBindOffer, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		ref.MarshalCDR(e)
		e.PutString(host)
		e.PutInt64(int64(ttl))
	}, nil)
}

// RenewLease extends the lease of the offer with reference ref in the
// group at name. Renewing an evicted (or never-bound) offer fails with
// the NotFound user exception; the server should re-register with
// BindOfferLease.
func (c *Client) RenewLease(ctx context.Context, name Name, ref orb.ObjectRef, ttl time.Duration) error {
	return c.call(ctx, opRenewLease, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		ref.MarshalCDR(e)
		e.PutInt64(int64(ttl))
	}, nil)
}

// ListLeases returns the offers at name together with their lease TTL and
// remaining time (operator view; `nsadmin leases`).
func (c *Client) ListLeases(ctx context.Context, name Name) ([]OfferLease, error) {
	var out []OfferLease
	err := c.call(ctx, opListLeases,
		name.MarshalCDR,
		func(d *cdr.Decoder) error {
			var err error
			out, err = getLeases(d)
			return err
		})
	return out, err
}

// Watch registers callback for oneway membership pushes about name and
// returns the name's current membership and epoch — one call both
// subscribes and delta-syncs, which is also how a reconnecting client
// catches up. sinceEpoch is the epoch the caller already holds (0 for a
// fresh subscription).
func (c *Client) Watch(ctx context.Context, name Name, callback orb.ObjectRef, sinceEpoch uint64) ([]OfferLease, uint64, error) {
	var out []OfferLease
	var epoch uint64
	err := c.call(ctx, opWatch,
		func(e *cdr.Encoder) {
			name.MarshalCDR(e)
			callback.MarshalCDR(e)
			e.PutUint64(sinceEpoch)
		},
		func(d *cdr.Decoder) error {
			epoch = d.GetUint64()
			var err error
			out, err = getLeases(d)
			return err
		})
	return out, epoch, err
}

// Unwatch removes callback's subscription for name.
func (c *Client) Unwatch(ctx context.Context, name Name, callback orb.ObjectRef) error {
	return c.call(ctx, opUnwatch, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		callback.MarshalCDR(e)
	}, nil)
}

// ListWatches returns the server's watch table (operator view;
// `nsadmin watches`).
func (c *Client) ListWatches(ctx context.Context) ([]WatchInfo, error) {
	var out []WatchInfo
	err := c.call(ctx, opListWatches,
		nil,
		func(d *cdr.Decoder) error {
			n := d.GetUint32()
			if n > 1<<20 {
				return &orb.SystemException{Kind: orb.ExMarshal, Detail: "watch list too long"}
			}
			out = make([]WatchInfo, 0, n)
			for i := uint32(0); i < n; i++ {
				wn, err := DecodeName(d)
				if err != nil {
					return err
				}
				out = append(out, WatchInfo{Name: wn, Watchers: int(d.GetUint32())})
			}
			return d.Err()
		})
	return out, err
}

// SyncState pushes a registry snapshot to the naming server (replication).
// It reports whether the server adopted the snapshot and the server's
// resulting epoch.
func (c *Client) SyncState(ctx context.Context, snapshot []byte) (adopted bool, epoch uint64, err error) {
	err = c.call(ctx, opSyncState,
		func(e *cdr.Encoder) { e.PutBytes(snapshot) },
		func(d *cdr.Decoder) error {
			adopted = d.GetBool()
			epoch = d.GetUint64()
			return d.Err()
		})
	return adopted, epoch, err
}

// UnbindOffer removes the offer with reference ref from the group at name.
func (c *Client) UnbindOffer(ctx context.Context, name Name, ref orb.ObjectRef) error {
	return c.call(ctx, opUnbindOffer, func(e *cdr.Encoder) {
		name.MarshalCDR(e)
		ref.MarshalCDR(e)
	}, nil)
}

// ListOffers returns the group bound at name.
func (c *Client) ListOffers(ctx context.Context, name Name) ([]Offer, error) {
	var out []Offer
	err := c.call(ctx, opListOffers,
		name.MarshalCDR,
		func(d *cdr.Decoder) error {
			n := d.GetUint32()
			if n > 1<<20 {
				return &orb.SystemException{Kind: orb.ExMarshal, Detail: "offer list too long"}
			}
			out = make([]Offer, 0, n)
			for i := uint32(0); i < n; i++ {
				var o Offer
				if err := o.Ref.UnmarshalCDR(d); err != nil {
					return err
				}
				o.Host = d.GetString()
				out = append(out, o)
			}
			return d.Err()
		})
	return out, err
}
