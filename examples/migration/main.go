// Migration: the paper's observation that a checkpoint/restore-capable
// service "can in principle be migrated from one host to another ... also
// due to a changing load situation", made operational. A long-lived
// simulation service runs on one workstation; when background load
// appears there, the migrator consults Winner, finds a much better host
// and moves the service state over. When the new host then crashes, the
// next call recovers the paper's way: the proxy unbinds the dead offer,
// re-resolves the name, restores the checkpoint and replays.
//
//	go run ./examples/migration
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro/internal/cdr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/orb"
)

// simulation is a stateful service accumulating simulation steps.
type simulation struct {
	mu    sync.Mutex
	steps int64
}

func (s *simulation) TypeID() string { return "IDL:example/Simulation:1.0" }

func (s *simulation) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "step":
		s.steps++
		out.PutInt64(s.steps)
		return nil
	default:
		return orb.BadOperation(op)
	}
}

func (s *simulation) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(8)
	e.PutInt64(s.steps)
	return e.Bytes(), nil
}

func (s *simulation) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	v := d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.steps = v
	s.mu.Unlock()
	return nil
}

func main() {
	env, err := core.Start(core.EnvironmentOptions{Hosts: 3, UseWinner: true})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	storeRef := env.ServiceNode.Adapter.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))
	name := naming.NewName("sim")

	var hostNames []string
	var nodes []*cluster.Node
	for _, h := range env.Cluster.Hosts()[1:] {
		node, err := env.NewNode(h.Name())
		if err != nil {
			log.Fatal(err)
		}
		ref := node.Adapter.Activate("sim", ft.Wrap(&simulation{}))
		if err := env.Naming.BindOffer(context.Background(), name, ref, h.Name()); err != nil {
			log.Fatal(err)
		}
		hostNames = append(hostNames, h.Name())
		nodes = append(nodes, node)
	}
	env.SampleAll()

	ctx := context.Background()
	client := env.ServiceNode.ORB
	proxy, err := ft.NewProxy(ctx, client, name, env.Naming,
		ft.NewStoreClient(client, storeRef),
		ft.Policy{CheckpointEvery: 1}, ft.WithUnbinder(env.Naming))
	if err != nil {
		log.Fatal(err)
	}
	migrator := ft.NewMigrator(ctx, proxy,
		ft.MigrateOffers(env.Naming), ft.MigrateLoads(env.Manager),
		ft.MigrateMinImprovement(1.5))

	step := func() int64 {
		var n int64
		if err := proxy.Call(ctx, "step", nil, func(d *cdr.Decoder) error {
			n = d.GetInt64()
			return d.Err()
		}); err != nil {
			log.Fatal(err)
		}
		return n
	}

	hostOf := func() string {
		offers, err := env.Naming.ListOffers(ctx, name)
		if err != nil {
			return "?"
		}
		for _, o := range offers {
			if o.Ref == proxy.Ref() {
				return o.Host
			}
		}
		return "?"
	}

	fmt.Printf("simulation runs on %s\n", hostOf())
	for i := 0; i < 3; i++ {
		fmt.Printf("  step -> %d\n", step())
	}

	fmt.Printf("\n*** background load appears on %s ***\n", hostNames[0])
	env.Cluster.Host(hostNames[0]).SetBackground(3)
	env.SampleAll()

	moved, err := migrator.Step(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrator moved the service to %s (state travelled via checkpoint)\n", moved)
	for i := 0; i < 2; i++ {
		fmt.Printf("  step -> %d\n", step())
	}

	serving := hostOf()
	fmt.Printf("\n*** %s crashes; the next call recovers from the checkpoint ***\n", serving)
	for i, h := range hostNames {
		if h == serving {
			nodes[i].Fail()
		}
	}
	fmt.Printf("  step -> %d\n", step())
	offers, _ := env.Naming.ListOffers(ctx, name)
	fmt.Printf("offers remaining: %d, proxy stats: %+v\n", len(offers), proxy.Stats())
}
