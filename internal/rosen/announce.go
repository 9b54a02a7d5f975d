package rosen

import (
	"context"
	"time"

	"repro/internal/naming"
	"repro/internal/orb"
)

// Announcement is a worker's live registration: a leased offer under the
// worker group name plus the renewer keeping it alive. Stop withdraws the
// worker from the group (best-effort unbind, then let the lease lapse).
type Announcement struct {
	ns      *naming.Client
	name    naming.Name
	ref     orb.ObjectRef
	renewer *naming.LeaseRenewer
}

// AnnounceWorker registers a worker reference as a leased offer under the
// RosenbrockWorker group and starts the lease renewer. With ttl <= 0 the
// offer is bound without a lease (never swept) and no renewer runs —
// callers that only want the old fire-and-forget registration get exactly
// that. ns may be replicated (naming.NewHAClient), so announcements
// survive nameserver failover.
func AnnounceWorker(ctx context.Context, ns *naming.Client, ref orb.ObjectRef, host string, ttl time.Duration) (*Announcement, error) {
	name := naming.NewName(ServiceName)
	if err := ns.BindOfferLease(ctx, name, ref, host, ttl); err != nil {
		return nil, err
	}
	a := &Announcement{ns: ns, name: name, ref: ref}
	if ttl > 0 {
		a.renewer = naming.StartLeaseRenewer(ns, name, ref, host, ttl)
	}
	return a, nil
}

// Renewer exposes the underlying lease renewer (nil for leaseless
// announcements) for its counters.
func (a *Announcement) Renewer() *naming.LeaseRenewer { return a.renewer }

// Name returns the group name the worker is registered under.
func (a *Announcement) Name() naming.Name { return a.name }

// Stop halts renewal and unbinds the offer immediately rather than
// waiting out the lease (best-effort).
func (a *Announcement) Stop(ctx context.Context) {
	if a.renewer != nil {
		a.renewer.Stop()
	}
	_ = a.ns.UnbindOffer(ctx, a.name, a.ref)
}
