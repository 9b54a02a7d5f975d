// Command loadgen generates artificial load two ways.
//
// CPU mode (the paper's experiments load selected workstations — "a
// background load was generated on 0, 2, 4, 6 or 8 hosts"): spin the
// requested number of CPU-bound worker loops for the requested duration.
//
//	loadgen -procs 2 -duration 5m
//
// Naming-storm mode: simulate a fleet of clients that hold a group ref
// over the push-based naming cache. Each simulated client subscribes
// once (one watch RPC), then picks a member every -pick-interval from
// pushed membership — zero resolve traffic while members die and
// return. This is the client side of the resolve-storm acceptance
// scenario; kill a group member mid-run and watch the nameserver's
// naming_resolves_total stay flat while picks keep succeeding.
//
//	loadgen -ns @ns1.ref -watch-clients 10000 -group svc/workers -duration 2m
//
// Mixed-priority mode: drive the naming service's resolve path with a
// blend of QoS classes past saturation and watch admission control work.
// -qos-mix gives the client count per class; each client stamps its
// calls with its class (and a tenant id when -tenants is set) and counts
// successes, admission sheds and other failures separately. Pair with a
// server running -tenant-rate / -degrade-high to see batch shed first
// while critical latency stays flat:
//
//	loadgen -ns @ns1.ref -qos-mix critical:2,normal:8,batch:32 -tenants 4 -duration 1m
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/naming"
	"repro/internal/orb"
)

func main() {
	procs := flag.Int("procs", 1, "number of CPU-bound load loops (CPU mode)")
	duration := flag.Duration("duration", 0, "stop after this long (0: until interrupted)")
	nsRef := flag.String("ns", "", "naming service SIOR or @ref-file (enables naming-storm mode)")
	clients := flag.Int("watch-clients", 1000, "simulated subscribing clients (naming-storm mode)")
	group := flag.String("group", "svc/workers", "group name the clients hold a ref to")
	pickInterval := flag.Duration("pick-interval", 100*time.Millisecond, "per-client member pick cadence")
	obsAddr := flag.String("obs", "", "serve /metrics, /healthz and /debug endpoints on this address (naming-storm mode; empty: disabled)")
	qosMix := flag.String("qos-mix", "", "per-class client counts, e.g. critical:2,normal:8,batch:32 (enables mixed-priority mode; needs -ns)")
	tenants := flag.Int("tenants", 0, "spread mixed-priority clients over this many tenant ids (0: anonymous)")
	callInterval := flag.Duration("call-interval", 10*time.Millisecond, "per-client call cadence (mixed-priority mode)")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *nsRef != "" {
		ref, err := orb.RefFromSpec(*nsRef)
		if err != nil {
			log.Fatalf("loadgen: -ns: %v", err)
		}
		name, err := naming.ParseName(*group)
		if err != nil {
			log.Fatalf("loadgen: bad -group name: %v", err)
		}
		if *qosMix != "" {
			runQoSMix(ref, name, *qosMix, *tenants, *callInterval, *duration, sig)
		} else {
			runNamingStorm(ref, name, *clients, *pickInterval, *duration, *obsAddr, sig)
		}
		return
	}
	if *qosMix != "" {
		log.Fatal("loadgen: -qos-mix needs -ns")
	}

	if *procs < 1 {
		log.Fatal("loadgen: -procs must be >= 1")
	}
	var stop atomic.Bool
	for i := 0; i < *procs; i++ {
		go func(seed float64) {
			x := seed
			for !stop.Load() {
				// Arbitrary FP churn the compiler cannot remove.
				x = math.Sqrt(x*x+1.000001) * 0.999999
				if x > 1e12 {
					x = seed
				}
			}
			sinkFloat(x)
		}(float64(i + 2))
	}
	log.Printf("loadgen: %d load processes running", *procs)
	wait(duration, sig)
	stop.Store(true)
	log.Print("loadgen: done")
}

func wait(duration *time.Duration, sig chan os.Signal) {
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-sig:
		}
	} else {
		<-sig
	}
}

// runNamingStorm spins n simulated clients, each with its own GroupCache
// (own subscription, own pushed view) sharing one ORB and one listener
// adapter, picking from the group on a cadence.
func runNamingStorm(ref orb.ObjectRef, name naming.Name, n int, pickEvery time.Duration, duration time.Duration, obsAddr string, sig chan os.Signal) {
	o := orb.New(orb.Options{Name: "loadgen"})
	defer o.Shutdown()
	ad, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	ns := naming.NewClient(o, ref)

	var picksOK, picksFail atomic.Uint64
	if obsAddr != "" {
		// The observer makes the load generator itself diagnosable: its
		// flight recorder captures the client-side view of pushes and
		// picks, and /healthz turns red when picks start failing.
		ob, ln, err := o.Observe("loadgen", obsAddr)
		if err != nil {
			log.Fatalf("loadgen: obs endpoint: %v", err)
		}
		defer ln.Close()
		ob.Registry.NewCounterFunc("loadgen_picks_ok_total",
			"Group member picks that succeeded.", picksOK.Load)
		ob.Registry.NewCounterFunc("loadgen_picks_failed_total",
			"Group member picks that failed.", picksFail.Load)
		ob.Health.Register("picks", func() error {
			if ok, fail := picksOK.Load(), picksFail.Load(); fail > 0 && fail >= ok {
				return fmt.Errorf("%d of %d picks failing", fail, ok+fail)
			}
			return nil
		})
		log.Printf("loadgen: observability on http://%s/metrics", ln.Addr())
	}
	caches := make([]*naming.GroupCache, n)
	refs := make([]*naming.GroupRef, n)
	for i := range caches {
		caches[i] = naming.NewGroupCache(ad, ns, naming.GroupCacheOptions{
			Refresh: 5 * time.Minute, // pushes carry the updates; refresh is insurance
		})
		refs[i] = caches[i].Group(name, naming.SpreadRoundRobin)
	}
	log.Printf("loadgen: %d watch clients on %s (group %s)", n, ref.Addr, name)

	var stop atomic.Bool
	for i := range refs {
		go func(g *naming.GroupRef) {
			t := time.NewTicker(pickEvery)
			defer t.Stop()
			for !stop.Load() {
				<-t.C
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := g.Pick(ctx)
				cancel()
				if err != nil {
					picksFail.Add(1)
				} else {
					picksOK.Add(1)
				}
			}
		}(refs[i])
	}

	wait(&duration, sig)
	stop.Store(true)
	var applied, resub uint64
	for _, c := range caches {
		applied += c.Applied()
		resub += c.Resubscribes()
		c.Close()
	}
	log.Printf("loadgen: picks ok=%d fail=%d, invalidations applied=%d, resubscribes=%d",
		picksOK.Load(), picksFail.Load(), applied, resub)
}

// runQoSMix drives the naming service's resolve path with a blend of QoS
// classes past saturation. Each simulated client owns a stub stamped with
// its class (and a tenant id when -tenants is set) and resolves the group
// name on a cadence; outcomes are tallied per class with admission sheds
// (TRANSIENT carrying a retry-after hint) split from other failures, so a
// run against an overloaded server shows batch shedding while critical
// stays clean.
func runQoSMix(ref orb.ObjectRef, name naming.Name, mix string, tenants int, every, duration time.Duration, sig chan os.Signal) {
	var counts [orb.NumClasses]int
	for _, part := range strings.Split(mix, ",") {
		cls, val, ok := strings.Cut(part, ":")
		if !ok {
			log.Fatalf("loadgen: bad -qos-mix entry %q (want class:count)", part)
		}
		p, err := orb.ParsePriority(cls)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			log.Fatalf("loadgen: bad count in -qos-mix entry %q", part)
		}
		counts[p] = n
	}

	o := orb.New(orb.Options{Name: "loadgen"})
	defer o.Shutdown()

	var okN, shedN, failN [orb.NumClasses]atomic.Uint64
	var stop atomic.Bool
	tenant := 0
	total := 0
	for class := orb.Priority(0); class < orb.NumClasses; class++ {
		for i := 0; i < counts[class]; i++ {
			opts := []orb.CallOption{orb.WithPriority(class)}
			if tenants > 0 {
				opts = append(opts, orb.WithTenant(fmt.Sprintf("tenant-%d", tenant%tenants)))
				tenant++
			}
			ns := naming.NewClient(o, ref)
			ns.SetCallOptions(opts...)
			total++
			go func(class orb.Priority, ns *naming.Client) {
				t := time.NewTicker(every)
				defer t.Stop()
				for !stop.Load() {
					<-t.C
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					_, err := ns.Resolve(ctx, name)
					cancel()
					switch {
					case err == nil:
						okN[class].Add(1)
					case orb.IsAdmissionShed(err):
						shedN[class].Add(1)
					default:
						failN[class].Add(1)
					}
				}
			}(class, ns)
		}
	}
	log.Printf("loadgen: %d mixed-priority clients on %s (group %s, every %v)", total, ref.Addr, name, every)
	wait(&duration, sig)
	stop.Store(true)
	for _, class := range []orb.Priority{orb.ClassCritical, orb.ClassNormal, orb.ClassBatch} {
		if counts[class] == 0 {
			continue
		}
		log.Printf("loadgen: %-8s ok=%d shed=%d fail=%d",
			class, okN[class].Load(), shedN[class].Load(), failN[class].Load())
	}
}

//go:noinline
func sinkFloat(float64) {}
