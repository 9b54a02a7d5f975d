// Command nsadmin inspects and edits a running naming service.
//
//	nsadmin -ns "$SIOR" list [path]        # list bindings of a context
//	nsadmin -ns "$SIOR" tree               # recursive dump of the tree
//	nsadmin -ns "$SIOR" resolve a/b        # resolve a name
//	nsadmin -ns "$SIOR" offers a/b         # list a group's offers
//	nsadmin -ns "$SIOR" leases a/b         # list offers with lease state
//	nsadmin -ns "$SIOR" leases -stale a/b  # only leases at risk / expired
//	nsadmin -ns "$SIOR" watches            # names with push subscribers
//	nsadmin -ns "$SIOR" bind a/b "$SIOR2"  # bind a stringified reference
//	nsadmin -ns "$SIOR" unbind a/b         # remove a binding
//	nsadmin -ns "$SIOR" mkdir a/b          # create a sub-context
//	nsadmin -ns "$SIOR" ping a/b           # resolve and liveness-probe
//	nsadmin health 127.0.0.1:8080          # query a daemon's /healthz
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

func main() {
	nsRefStr := flag.String("ns", "", "SIOR of the naming service (required except for health)")
	timeout := flag.Duration("timeout", 5*time.Second, "overall deadline for the command")
	flag.Parse()
	// health talks HTTP to a daemon's obs endpoint, not GIOP to the
	// naming service, so it runs before the -ns requirement.
	if flag.Arg(0) == "health" {
		if flag.NArg() < 2 {
			log.Fatal("nsadmin: health needs an obs address (host:port)")
		}
		os.Exit(healthCmd(flag.Arg(1), *timeout))
	}
	if *nsRefStr == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	nsRef, err := orb.RefFromString(*nsRefStr)
	if err != nil {
		log.Fatalf("nsadmin: bad -ns reference: %v", err)
	}
	o := orb.New(orb.Options{Name: "nsadmin"})
	defer o.Shutdown()
	ns := naming.NewClient(o, nsRef)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cmd := flag.Arg(0)
	arg := func(i int) string {
		if flag.NArg() <= i {
			log.Fatalf("nsadmin: %s needs more arguments", cmd)
		}
		return flag.Arg(i)
	}
	parse := func(s string) naming.Name {
		n, err := naming.ParseName(s)
		if err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		return n
	}

	switch cmd {
	case "list":
		var name naming.Name
		if flag.NArg() > 1 {
			name = parse(flag.Arg(1))
		}
		bindings, err := ns.List(ctx, name)
		if err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		for _, b := range bindings {
			fmt.Printf("%-10s %s\n", typeLabel(b.Type), b.Name)
		}

	case "tree":
		if err := tree(ctx, ns, nil, ""); err != nil {
			log.Fatalf("nsadmin: %v", err)
		}

	case "resolve":
		ref, err := ns.Resolve(ctx, parse(arg(1)))
		if err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		fmt.Println(ref.ToString())
		fmt.Println(ref)

	case "offers":
		offers, err := ns.ListOffers(ctx, parse(arg(1)))
		if err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		for _, of := range offers {
			fmt.Printf("%-12s %v\n", of.Host, of.Ref)
		}

	case "leases":
		fs := flag.NewFlagSet("leases", flag.ExitOnError)
		stale := fs.Bool("stale", false, "show only expired leases and leases past 2/3 of their TTL")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		if fs.NArg() < 1 {
			log.Fatal("nsadmin: leases needs a group name")
		}
		leases, err := ns.ListLeases(ctx, parse(fs.Arg(0)))
		if err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		for _, l := range leases {
			if *stale && !staleLease(l) {
				continue
			}
			fmt.Printf("%-12s %-10s %v\n", l.Offer.Host, leaseLabel(l), l.Offer.Ref)
		}

	case "watches":
		watches, err := ns.ListWatches(ctx)
		if err != nil {
			log.Fatalf("nsadmin: %v", err)
		}
		for _, w := range watches {
			fmt.Printf("%-8d %s\n", w.Watchers, w.Name)
		}

	case "bind":
		target, err := orb.RefFromString(arg(2))
		if err != nil {
			log.Fatalf("nsadmin: bad target reference: %v", err)
		}
		if err := ns.Bind(ctx, parse(arg(1)), target); err != nil {
			log.Fatalf("nsadmin: %v", err)
		}

	case "unbind":
		if err := ns.Unbind(ctx, parse(arg(1))); err != nil {
			log.Fatalf("nsadmin: %v", err)
		}

	case "mkdir":
		if err := ns.BindNewContext(ctx, parse(arg(1))); err != nil {
			log.Fatalf("nsadmin: %v", err)
		}

	case "ping":
		ref, err := ns.Resolve(ctx, parse(arg(1)))
		if err != nil {
			log.Fatalf("nsadmin: resolve: %v", err)
		}
		if err := o.Ping(ctx, ref); err != nil {
			fmt.Printf("DEAD  %v: %v\n", ref, err)
			os.Exit(1)
		}
		fmt.Printf("ALIVE %v\n", ref)

	default:
		log.Fatalf("nsadmin: unknown command %q", cmd)
	}
}

// healthCmd fetches and renders a daemon's /healthz report. Exit status:
// 0 healthy, 1 degraded, 2 unreachable or undecodable.
func healthCmd(addr string, timeout time.Duration) int {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		log.Printf("nsadmin: %v", err)
		return 2
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("nsadmin: %v", err)
		return 2
	}
	defer resp.Body.Close()
	var rep obs.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		log.Printf("nsadmin: decode /healthz: %v", err)
		return 2
	}
	fmt.Printf("%-10s %s\n", rep.Status, rep.Service)
	components := make([]string, 0, len(rep.Components))
	for name := range rep.Components {
		components = append(components, name)
	}
	sort.Strings(components)
	for _, name := range components {
		c := rep.Components[name]
		state := "ok"
		if !c.OK {
			state = "FAIL"
		}
		fmt.Printf("  %-10s %-4s %s\n", name, state, c.Detail)
	}
	for _, an := range rep.Anomalies {
		fmt.Printf("  anomaly    %s x%d %s %s\n",
			an.Kind, an.Count, an.Time.Format(time.RFC3339), an.Detail)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

// staleLease reports whether a lease deserves operator attention: it has
// already expired (awaiting the sweeper) or less than a third of its TTL
// remains — i.e. at least two renewal ticks were missed. Leaseless offers
// never expire and are never stale.
func staleLease(l naming.OfferLease) bool {
	if l.Offer.LeaseTTL <= 0 {
		return false
	}
	return l.Remaining <= l.Offer.LeaseTTL/3
}

// leaseLabel renders the lease state column.
func leaseLabel(l naming.OfferLease) string {
	if l.Offer.LeaseTTL <= 0 {
		return "-"
	}
	if l.Remaining <= 0 {
		return "EXPIRED"
	}
	return l.Remaining.Round(time.Millisecond).String()
}

func typeLabel(t naming.BindingType) string {
	switch t {
	case naming.BindObject:
		return "object"
	case naming.BindContext:
		return "context"
	case naming.BindGroup:
		return "group"
	default:
		return "?"
	}
}

// tree prints the naming tree recursively.
func tree(ctx context.Context, ns *naming.Client, at naming.Name, indent string) error {
	bindings, err := ns.List(ctx, at)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		fmt.Printf("%s%-10s %s\n", indent, typeLabel(b.Type), b.Name)
		if b.Type == naming.BindContext {
			sub := append(append(naming.Name{}, at...), b.Name...)
			if err := tree(ctx, ns, sub, indent+"  "); err != nil {
				return err
			}
		}
	}
	return nil
}
