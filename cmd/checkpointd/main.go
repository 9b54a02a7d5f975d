// Command checkpointd runs the checkpoint storage service.
//
// With -dir it persists checkpoints to disk (surviving restarts — the
// persistence the paper lists as future work); without it, checkpoints
// live in memory like the paper's prototype.
//
//	checkpointd -addr 127.0.0.1:9003 -dir /var/lib/checkpoints
//
// With -peers it serves a quorum front-end instead: reads and writes fan
// out to the local store plus each peer replica (write-all/ack-majority,
// read-newest-epoch, background read-repair), so a client talking to this
// daemon survives any single replica failure. Peers are given as SIORs,
// or as @file references to SIOR files written by -ref-file:
//
//	checkpointd -addr :9003 -dir /data/a -ref-file /tmp/a.ref \
//	    -peers @/tmp/b.ref,@/tmp/c.ref
//
// Peers must be plain replicas (no -peers of their own), otherwise
// quorum calls would recurse through front-ends.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

func main() {
	df := daemon.ServiceFlags(flag.CommandLine, "checkpointd", "127.0.0.1:9003")
	dir := flag.String("dir", "", "persist checkpoints to this directory (empty: in-memory)")
	peers := flag.String("peers", "", "comma-separated peer replica SIORs (or @file) to form a quorum front-end")
	flag.Parse()
	slog.SetDefault(obs.NewLogger(os.Stderr, "checkpointd", slog.LevelInfo))

	d, err := df.Start()
	if err != nil {
		log.Fatalf("checkpointd: %v", err)
	}
	defer d.Close()

	var local ft.Store
	if *dir != "" {
		ds, err := ft.NewDiskStore(*dir)
		if err != nil {
			log.Fatalf("checkpointd: %v", err)
		}
		local = ds
		log.Printf("checkpointd: disk store in %s", *dir)
	} else {
		local = ft.NewMemStore()
		log.Print("checkpointd: in-memory store")
	}

	store := local
	if *peers != "" {
		replicas := []ft.Store{local}
		for _, spec := range naming.ParsePeerSpecs(*peers) {
			ref, err := orb.RefFromSpec(spec)
			if err != nil {
				log.Fatalf("checkpointd: -peers: %v", err)
			}
			replicas = append(replicas, ft.NewStoreClient(d.ORB, ref))
		}
		rs, err := ft.NewReplicatedStore(replicas)
		if err != nil {
			log.Fatalf("checkpointd: %v", err)
		}
		store = rs
		log.Printf("checkpointd: quorum front-end over %d replicas (majority %d)", rs.Replicas(), rs.Quorum())
	}

	ref := d.Adapter.Activate(ft.StoreDefaultKey, ft.NewStoreServant(store))
	err = d.Announce(ref, func(ob *obs.Observer) {
		// The store probe exercises the same path Get/Put ride (quorum
		// front-end included), so /readyz flips when a majority is lost.
		ob.Health.Register("store", func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := store.Keys(ctx)
			return err
		})
	})
	if err != nil {
		log.Fatalf("checkpointd: %v", err)
	}
	d.Wait()
}
