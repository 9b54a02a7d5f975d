// Command winnerd runs the Winner resource management system.
//
// In -role system (default) it serves the central system manager and
// prints its stringified reference. In -role node it runs a node manager:
// it samples this machine's /proc/loadavg periodically and reports to the
// system manager given by -manager.
//
//	winnerd -role system -addr 127.0.0.1:9002
//	winnerd -role node -manager "$(cat winner.ref)" -host node07 -period 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/winner"
)

func main() {
	df := daemon.ServiceFlags(flag.CommandLine, "winnerd", "127.0.0.1:9002")
	role := flag.String("role", "system", "system | node")
	managerRef := flag.String("manager", "", "SIOR (or @ref-file) of the system manager (node role)")
	host := flag.String("host", "", "host name to report (node role; default: hostname)")
	speed := flag.Float64("speed", 1, "relative CPU speed of this host (node role)")
	period := flag.Duration("period", 2*time.Second, "sampling period (node role)")
	maxAge := flag.Duration("max-sample-age", 0, "treat load samples older than this as stale (system role; 0: never)")
	degradeTrend := flag.Float64("degrade-trend", 0, "effective-speed fraction of a host's peak below which it counts as degrading (system role; 0: membership view disabled)")
	degradeSamples := flag.Int("degrade-samples", 3, "consecutive below-trend samples before a Degrading membership event fires (system role)")
	flag.Parse()
	slog.SetDefault(obs.NewLogger(os.Stderr, "winnerd", slog.LevelInfo))

	switch *role {
	case "system":
		runSystem(df, *maxAge, *degradeTrend, *degradeSamples)
	case "node":
		runNode(*managerRef, *host, *speed, *period)
	default:
		log.Fatalf("winnerd: unknown role %q", *role)
	}
}

// runSystem serves the system manager; the shared daemon flags apply to
// this role only.
func runSystem(df *daemon.Flags, maxAge time.Duration, degradeTrend float64, degradeSamples int) {
	d, err := df.Start()
	if err != nil {
		log.Fatalf("winnerd: %v", err)
	}
	defer d.Close()
	mgr := winner.NewManager()
	if maxAge > 0 {
		mgr.SetMaxSampleAge(maxAge, time.Now)
		log.Printf("winnerd: samples stale after %v", maxAge)
	}
	// With -degrade-trend the system manager maintains a first-class
	// cluster membership view: every load report feeds it, hosts whose
	// effective speed collapses below the trend threshold emit Degrading
	// events, and Forget reports deaths — all visible on /metrics.
	var membership *cluster.Membership
	if degradeTrend > 0 {
		membership = cluster.NewMembership(
			cluster.WithDegradeTrend(degradeTrend),
			cluster.WithDegradeSamples(degradeSamples),
			cluster.WithMembershipLogger(slog.Default()))
		mgr.SetMembershipSink(membership.Feed("winner"))
		log.Printf("winnerd: membership view on (degrade trend %.2f over %d samples)",
			degradeTrend, degradeSamples)
	}
	ref := d.Adapter.Activate(winner.DefaultKey, winner.NewServant(mgr))
	err = d.Announce(ref, func(ob *obs.Observer) {
		ob.Health.Register("winner", func() error {
			if stale := len(mgr.StaleHosts()); stale > 0 {
				return fmt.Errorf("%d hosts with stale load samples", stale)
			}
			return nil
		})
		ob.Registry.NewGaugeFunc("winner_hosts",
			"Hosts currently known to the system manager.",
			func() float64 { return float64(mgr.HostCount()) })
		ob.Registry.NewGaugeFunc("winner_stale_hosts",
			"Known hosts whose newest load sample exceeds -max-sample-age.",
			func() float64 { return float64(len(mgr.StaleHosts())) })
		if membership != nil {
			membership.ExportMetrics(ob.Registry)
		}
	})
	if err != nil {
		log.Fatalf("winnerd: %v", err)
	}
	d.Wait()
}

func runNode(managerRef, host string, speed float64, period time.Duration) {
	if managerRef == "" {
		log.Fatal("winnerd: -role node requires -manager")
	}
	ref, err := orb.RefFromSpec(managerRef)
	if err != nil {
		log.Fatalf("winnerd: -manager: %v", err)
	}
	o := orb.New(orb.Options{Name: "winnerd-node"})
	defer o.Shutdown()
	client := winner.NewClient(o, ref)
	src := &winner.ProcLoadSource{Host: host, Speed: speed}
	nm := winner.NewNodeManager(src, client, period)
	nm.Start()
	defer nm.Stop()
	log.Printf("winnerd: node manager reporting %q every %v", src.Sample().Host, period)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}
