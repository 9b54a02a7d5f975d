package cluster

import (
	"fmt"

	"repro/internal/orb"
)

// Node wires a simulated Host to a live ORB process: an ORB whose
// interceptor chain propagates the host's virtual clock, plus one object
// adapter listening on loopback. Every simulated workstation process in an
// experiment is a Node, so calls between nodes travel real TCP while their
// timing lives in virtual time.
type Node struct {
	Host    *Host
	ORB     *orb.ORB
	Adapter *orb.Adapter

	latency float64
	failed  bool
}

// NodeOptions configure a Node.
type NodeOptions struct {
	// Latency is the virtual one-way network latency in seconds charged
	// on every received message.
	Latency float64
	// ORB options besides Name and the time interceptor are taken as-is.
	ORB orb.Options
}

// NewNode boots an ORB + adapter for host.
func NewNode(host *Host, opts NodeOptions) (*Node, error) {
	o := opts.ORB
	if o.Name == "" {
		o.Name = host.Name()
	}
	ti := NewTimeInterceptor(host.Clock())
	ti.Latency = opts.Latency
	o.CallInterceptors = append(o.CallInterceptors, ti)
	b := orb.New(o)
	a, err := b.NewAdapter("127.0.0.1:0")
	if err != nil {
		b.Shutdown()
		return nil, fmt.Errorf("cluster: node %s: %w", host.Name(), err)
	}
	return &Node{Host: host, ORB: b, Adapter: a, latency: opts.Latency}, nil
}

// Fail simulates a workstation crash: the host stops computing and the
// node's adapter and ORB close, so remote callers observe COMM_FAILURE —
// the paper's error-detection condition.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	n.Host.Fail()
	n.Adapter.Close()
	n.ORB.Shutdown()
}

// Restart brings a crashed node back as a fresh process on the same host:
// a new ORB and adapter (new port, as after a real restart). Servants must
// be re-activated by the caller — with state restored from checkpoints,
// which is exactly the paper's recovery model.
func (n *Node) Restart(opts NodeOptions) error {
	if !n.failed {
		return nil
	}
	n.Host.Recover()
	fresh, err := NewNode(n.Host, opts)
	if err != nil {
		return err
	}
	n.ORB = fresh.ORB
	n.Adapter = fresh.Adapter
	n.latency = fresh.latency
	n.failed = false
	return nil
}

// Failed reports whether the node is down.
func (n *Node) Failed() bool { return n.failed }

// Close shuts the node down without marking the host crashed.
func (n *Node) Close() {
	if n.failed {
		return
	}
	n.Adapter.Close()
	n.ORB.Shutdown()
}
