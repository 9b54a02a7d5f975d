package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/naming"
	"repro/internal/winner"
)

// Environment is a fully wired simulated NOW runtime: the cluster, one
// service node hosting the (plain or Winner-enhanced) naming service and
// the Winner system manager, and per-host Winner node managers. It is the
// setup Figure 1 of the paper draws, ready for experiments and examples.
type Environment struct {
	Cluster *cluster.Cluster
	// ServiceHost is the workstation running the shared services.
	ServiceHost *cluster.Host
	// ServiceNode is the ORB process hosting naming + system manager.
	ServiceNode *cluster.Node
	// Naming is a client stub bound to the naming service.
	Naming *naming.Client
	// Winner is a client stub bound to the system manager.
	Winner *winner.Client
	// Manager is the system manager core (for in-process feeding).
	Manager *winner.Manager
	// NodeManagers are the per-host Winner daemons, in host order.
	NodeManagers []*winner.NodeManager

	latency float64
	nodes   []*cluster.Node
}

// EnvironmentOptions configure Start.
type EnvironmentOptions struct {
	// Hosts is the number of workstations (default 10, the paper's NOW).
	Hosts int
	// UseWinner selects the enhanced naming service; false gives the
	// plain round-robin baseline.
	UseWinner bool
	// Latency is the virtual one-way network latency in seconds.
	Latency float64
}

// Start boots an environment on a fresh uniform cluster.
func Start(opts EnvironmentOptions) (*Environment, error) {
	if opts.Hosts <= 0 {
		opts.Hosts = 10
	}
	c := cluster.NewUniform(opts.Hosts, "node")
	return StartOn(c, opts)
}

// StartOn boots an environment on an existing cluster. The first host
// doubles as the service host (running naming + system manager), matching
// the paper's deployment where services share the NOW with the workers.
func StartOn(c *cluster.Cluster, opts EnvironmentOptions) (*Environment, error) {
	hosts := c.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: empty cluster")
	}
	serviceHost := hosts[0]
	serviceNode, err := cluster.NewNode(serviceHost, cluster.NodeOptions{Latency: opts.Latency})
	if err != nil {
		return nil, err
	}

	mgr := winner.NewManager()
	winnerRef := serviceNode.Adapter.Activate(winner.DefaultKey, winner.NewServant(mgr))

	reg := naming.NewRegistry()
	var servant *naming.Servant
	if opts.UseWinner {
		servant = NewLoadNamingServant(reg, mgr)
	} else {
		servant = NewPlainNamingServant(reg)
	}
	namingRef := serviceNode.Adapter.Activate(naming.DefaultKey, servant)

	env := &Environment{
		Cluster:     c,
		ServiceHost: serviceHost,
		ServiceNode: serviceNode,
		Naming:      naming.NewClient(serviceNode.ORB, namingRef),
		Winner:      winner.NewClient(serviceNode.ORB, winnerRef),
		Manager:     mgr,
		latency:     opts.Latency,
	}

	for _, h := range hosts {
		nm := winner.NewNodeManager(h, winner.ManagerReporter{M: mgr}, 0)
		env.NodeManagers = append(env.NodeManagers, nm)
		if err := nm.ReportOnce(); err != nil {
			env.Close()
			return nil, err
		}
	}
	return env, nil
}

// SampleAll makes every node manager report once immediately (the
// deterministic stand-in for the periodic measurement loop in virtual-time
// experiments).
func (e *Environment) SampleAll() {
	for _, nm := range e.NodeManagers {
		_ = nm.ReportOnce()
	}
}

// NewNode boots an application process on the named host, wired into the
// environment's virtual-time fabric.
func (e *Environment) NewNode(host string) (*cluster.Node, error) {
	h := e.Cluster.Host(host)
	if h == nil {
		return nil, fmt.Errorf("core: unknown host %q", host)
	}
	n, err := cluster.NewNode(h, cluster.NodeOptions{Latency: e.latency})
	if err != nil {
		return nil, err
	}
	e.nodes = append(e.nodes, n)
	return n, nil
}

// NamingClientFor returns a naming stub that calls the environment's
// naming service through the given node's ORB (so the node's clock merges
// with the service's on every resolve).
func (e *Environment) NamingClientFor(n *cluster.Node) *naming.Client {
	return naming.NewClient(n.ORB, e.Naming.Ref())
}

// Close stops node managers and shuts down every node it created.
func (e *Environment) Close() {
	for _, nm := range e.NodeManagers {
		nm.Stop()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	e.ServiceNode.Close()
}
