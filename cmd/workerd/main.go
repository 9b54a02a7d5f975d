// Command workerd runs one Rosenbrock worker service as a standalone
// process: a checkpointable subproblem solver wrapped for the ft layer,
// announced to the naming service as a leased group offer so the elastic
// manager can discover it, claim it, and — when the process dies or its
// lease lapses — notice its departure and re-decompose.
//
//	workerd -addr 127.0.0.1:0 -ns "$(cat /tmp/ns.ref)" -host node07 -ttl 2s
//
// The first stdout line is the worker's SIOR (printed after the naming
// registration succeeds, so a parent that has read it may immediately
// resolve the group).
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
	"repro/internal/rosen"
)

func main() {
	df := daemon.ListenFlags(flag.CommandLine, "workerd", "127.0.0.1:0")
	nsSIOR := flag.String("ns", "", "naming service SIOR (or @ref-file) to announce the worker to (empty: no registration)")
	host := flag.String("host", "", "logical host name carried in the offer (default: the hostname)")
	ttl := flag.Duration("ttl", 2*time.Second, "offer lease TTL; 0 binds without a lease")
	flag.Parse()
	slog.SetDefault(obs.NewLogger(os.Stderr, "workerd", slog.LevelInfo))

	if *host == "" {
		h, err := os.Hostname()
		if err != nil {
			log.Fatalf("workerd: no -host and no hostname: %v", err)
		}
		*host = h
	}

	d, err := df.Start()
	if err != nil {
		log.Fatalf("workerd: %v", err)
	}
	defer d.Close()
	ref := d.Adapter.Activate("worker", ft.Wrap(rosen.NewWorker(nil)))

	var ann *rosen.Announcement
	if *nsSIOR != "" {
		nsRef, err := orb.RefFromSpec(*nsSIOR)
		if err != nil {
			log.Fatalf("workerd: -ns: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ann, err = rosen.AnnounceWorker(ctx, naming.NewClient(d.ORB, nsRef), ref, *host, *ttl)
		cancel()
		if err != nil {
			log.Fatalf("workerd: announce: %v", err)
		}
		log.Printf("workerd: announced %s on %q (lease %v)", ref.Addr, *host, *ttl)
	}
	if err := d.Announce(ref, nil); err != nil {
		log.Fatalf("workerd: %v", err)
	}
	d.Wait()
	if ann != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		ann.Stop(ctx)
		cancel()
	}
}
