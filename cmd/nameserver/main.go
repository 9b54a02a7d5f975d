// Command nameserver runs the naming service as a standalone daemon.
//
// By default it serves the plain (round-robin) service; pass -winner with
// the stringified reference of a Winner system manager to serve the
// paper's load-distribution naming service instead.
//
//	nameserver -addr 127.0.0.1:9001
//	nameserver -addr 127.0.0.1:9001 -winner "$(cat winner.ref)"
//
// Replication: start N replicas, each pointing -peers at the others
// (SIORs or @ref-file specs, resolved lazily so start order is free):
//
//	nameserver -addr 127.0.0.1:9001 -ref-file ns1.ref -peers @ns2.ref,@ns3.ref
//	nameserver -addr 127.0.0.1:9002 -ref-file ns2.ref -peers @ns1.ref,@ns3.ref
//	nameserver -addr 127.0.0.1:9003 -ref-file ns3.ref -peers @ns1.ref,@ns2.ref
//
// Each replica pushes its registry snapshot (with a monotonic epoch) to
// its peers every -sync-period; receivers adopt strictly newer state.
// Leased offers (BindOffer with a TTL) are expired by a sweeper running
// every -sweep-period.
//
// The service's stringified object reference (SIOR) is printed on stdout
// and optionally written to -ref-file for other processes to pick up.
package main

import (
	"flag"
	"log"
	"log/slog"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/winner"
)

func main() {
	df := daemon.ServiceFlags(flag.CommandLine, "nameserver", "127.0.0.1:9001")
	winnerRef := flag.String("winner", "", "SIOR (or @ref-file) of the Winner system manager (enables load distribution)")
	store := flag.String("store", "", "persist bindings to this snapshot file")
	savePeriod := flag.Duration("save-period", 10*time.Second, "snapshot save interval (with -store)")
	peers := flag.String("peers", "", "comma-separated peer nameserver SIORs or @ref-file specs (enables replication)")
	syncPeriod := flag.Duration("sync-period", time.Second, "replication push interval (with -peers)")
	sweepPeriod := flag.Duration("sweep-period", 500*time.Millisecond, "leased-offer expiry sweep interval")
	pushTimeout := flag.Duration("push-timeout", 2*time.Second, "per-watcher invalidation push timeout")
	watchTTL := flag.Duration("watch-ttl", 5*time.Minute, "drop watchers silent for this long")
	elastic := flag.Bool("elastic", false, "maintain a cluster membership view from offer lifecycle (hosts join on first bound offer, leave on last)")
	flag.Parse()
	slog.SetDefault(obs.NewLogger(os.Stderr, "nameserver", slog.LevelInfo))

	d, err := df.Start()
	if err != nil {
		log.Fatalf("nameserver: %v", err)
	}
	defer d.Close()
	o := d.ORB

	reg := naming.NewRegistry()
	if *store != "" {
		if err := reg.LoadFile(*store); err != nil {
			log.Fatalf("nameserver: %v", err)
		}
		log.Printf("nameserver: persisting bindings to %s", *store)
	}
	var servant *naming.Servant
	var selector *core.WinnerSelector
	if *winnerRef != "" {
		ref, err := orb.RefFromSpec(*winnerRef)
		if err != nil {
			log.Fatalf("nameserver: -winner: %v", err)
		}
		selector = core.NewWinnerSelector(core.ClientRanker{C: winner.NewClient(o, ref)}, nil)
		servant = naming.NewServant(reg, selector)
		// Under overload the degradation controller parks the selector on
		// its cheap fallback — the ranking round trip is the first cost shed.
		o.OnDegrade(selector.DegradeHook())
		log.Printf("nameserver: load distribution enabled via %v", ref)
	} else {
		servant = core.NewPlainNamingServant(reg)
	}

	// The push hub observes every registry mutation (including sweeper
	// evictions and adopted peer snapshots) and fans membership updates
	// out to watching clients. The selector ranks pushed membership
	// winner-first so winner-weighted clients bias the same way resolve
	// would.
	var rank func(naming.Name, []naming.OfferLease) []naming.OfferLease
	if selector != nil {
		rank = naming.RankBySelector(selector)
	}
	hub := naming.NewHub(o, reg, naming.HubOptions{
		PushTimeout: *pushTimeout, WatchTTL: *watchTTL, Rank: rank,
	})
	hub.Start()
	defer hub.Stop()
	servant.SetHub(hub)

	// With -elastic the nameserver derives a first-class membership view
	// from offer lifecycle: a host's first bound offer is a Join, its last
	// offer unbinding (explicitly or by sweeper eviction) is a Leave. The
	// observer runs under the registry lock, so it must only refcount and
	// feed membership — never call back into the registry.
	var membership *cluster.Membership
	if *elastic {
		membership = cluster.NewMembership(cluster.WithMembershipLogger(slog.Default()))
		tracker := membership.TrackOffers("naming")
		reg.SetOfferObserver(func(n naming.Name, o naming.Offer, bound bool) {
			if bound {
				tracker.Bound(o.Host)
			} else {
				tracker.Unbound(o.Host)
			}
		})
		log.Print("nameserver: elastic membership view on (offer lifecycle drives join/leave)")
	}

	sweeper := naming.NewSweeper(reg, naming.SweeperOptions{Period: *sweepPeriod})
	sweeper.Start()
	defer sweeper.Stop()

	var repl *naming.Replicator
	if *peers != "" {
		specs := naming.ParsePeerSpecs(*peers)
		repl = naming.NewReplicator(o, reg, specs, naming.ReplicatorOptions{Period: *syncPeriod})
		repl.Start()
		defer repl.Stop()
		log.Printf("nameserver: replicating to %d peers every %v", len(specs), *syncPeriod)
	}

	ref := d.Adapter.Activate(naming.DefaultKey, servant)
	err = d.Announce(ref, func(ob *obs.Observer) {
		ob.Health.Register("hub", hub.HealthProbe)
		if repl != nil {
			ob.Health.Register("replication", repl.HealthProbe)
		}
		ob.Registry.NewCounterFunc("naming_offers_evicted_total",
			"Leased offers expired and unbound by the sweeper.", sweeper.Evicted)
		ob.Registry.NewGaugeFunc("naming_epoch",
			"Monotonic registry mutation epoch.", func() float64 { return float64(reg.Epoch()) })
		ob.Registry.NewCounterFunc("naming_snapshots_adopted_total",
			"Peer snapshots adopted by this replica.", reg.SnapshotsAdopted)
		hub.ExportMetrics(ob.Registry)
		ob.Registry.NewCounterFunc("naming_resolves_total",
			"Resolve requests served (the number pushes exist to keep flat).",
			servant.Resolves)
		ob.Registry.NewCounterFunc("naming_watch_requests_total",
			"Watch registrations served (subscriptions and re-watches).",
			servant.WatchRequests)
		if selector != nil {
			ob.Registry.NewCounterFunc("winner_fallback_total",
				"Resolves that degraded to the fallback selector.", selector.Fallbacks)
		}
		if repl != nil {
			ob.Registry.NewCounterFunc("naming_replication_pushes_total",
				"Successful snapshot pushes to peers.", repl.Pushes)
			ob.Registry.NewCounterFunc("naming_replication_push_errors_total",
				"Failed snapshot pushes to peers.", repl.PushErrors)
		}
		if membership != nil {
			membership.ExportMetrics(ob.Registry)
		}
	})
	if err != nil {
		log.Fatalf("nameserver: %v", err)
	}

	var saveTick <-chan time.Time
	if *store != "" {
		t := time.NewTicker(*savePeriod)
		defer t.Stop()
		saveTick = t.C
	}
	for {
		select {
		case <-saveTick:
			if err := reg.SaveFile(*store); err != nil {
				log.Printf("nameserver: snapshot: %v", err)
			}
		case <-d.Signals:
			if *store != "" {
				if err := reg.SaveFile(*store); err != nil {
					log.Printf("nameserver: final snapshot: %v", err)
				}
			}
			log.Print("nameserver: shutting down")
			return
		}
	}
}
