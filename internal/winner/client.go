package winner

import (
	"context"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// Client is the typed client stub for the Winner system manager. Every
// operation is one call that follows LOCATION_FORWARD replies; the stub
// carries no retry policy (load reporting tolerates loss and retries on
// the next tick instead).
type Client struct {
	orb *orb.ORB
	ref orb.ObjectRef
}

// NewClient builds a stub for the system manager at ref.
func NewClient(o *orb.ORB, ref orb.ObjectRef) *Client {
	return &Client{orb: o, ref: ref}
}

// Ref returns the service's object reference.
func (c *Client) Ref() orb.ObjectRef { return c.ref }

// call issues op against the system manager.
func (c *Client) call(ctx context.Context, op string, args func(*cdr.Encoder), reply func(*cdr.Decoder) error) error {
	return c.orb.CallOpts(ctx, c.ref, op, args, reply, orb.CallOptions{FollowForwards: true})
}

// Report ships a load sample to the system manager.
func (c *Client) Report(ctx context.Context, s LoadSample) error {
	return c.call(ctx, opReport, func(e *cdr.Encoder) { s.MarshalCDR(e) }, nil)
}

// BestHost asks for the currently best host, skipping any in exclude.
func (c *Client) BestHost(ctx context.Context, exclude []string) (string, error) {
	var host string
	err := c.call(ctx, opBestHost,
		func(e *cdr.Encoder) { e.PutStringSeq(exclude) },
		func(d *cdr.Decoder) error { host = d.GetString(); return d.Err() })
	return host, err
}

// BestOf asks for the best host among candidates.
func (c *Client) BestOf(ctx context.Context, candidates []string) (string, error) {
	var host string
	err := c.call(ctx, opBestOf,
		func(e *cdr.Encoder) { e.PutStringSeq(candidates) },
		func(d *cdr.Decoder) error { host = d.GetString(); return d.Err() })
	return host, err
}

// Ranking fetches all hosts, best first.
func (c *Client) Ranking(ctx context.Context) ([]HostInfo, error) {
	var out []HostInfo
	err := c.call(ctx, opRanking, nil, func(d *cdr.Decoder) error {
		n := d.GetUint32()
		if n > 1<<20 {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: "ranking too long"}
		}
		out = make([]HostInfo, 0, n)
		for i := uint32(0); i < n; i++ {
			var h HostInfo
			if err := h.UnmarshalCDR(d); err != nil {
				return err
			}
			out = append(out, h)
		}
		return d.Err()
	})
	return out, err
}

// HostInfo fetches the manager's view of one host.
func (c *Client) HostInfo(ctx context.Context, host string) (HostInfo, error) {
	var out HostInfo
	err := c.call(ctx, opHostInfo,
		func(e *cdr.Encoder) { e.PutString(host) },
		func(d *cdr.Decoder) error { return out.UnmarshalCDR(d) })
	return out, err
}

// HostEffectiveSpeed returns the host's adjusted effective speed, or
// false when the manager does not know the host (remote counterpart of
// Manager.HostEffectiveSpeed).
func (c *Client) HostEffectiveSpeed(ctx context.Context, host string) (float64, bool) {
	info, err := c.HostInfo(ctx, host)
	if err != nil {
		return 0, false
	}
	return info.AdjustedEffectiveSpeed(), true
}

// Forget removes a host from the manager.
func (c *Client) Forget(ctx context.Context, host string) error {
	return c.call(ctx, opForget, func(e *cdr.Encoder) { e.PutString(host) }, nil)
}
