// Package daemon is the bootstrap the service daemons (nameserver,
// winnerd, checkpointd, workerd) share: the flags they all take, the ORB
// and adapter those flags build, and the announce-then-wait lifecycle
// other processes rely on. A daemon's stdout is a contract: its first
// line is the service's SIOR, followed by OBS:host:port when -obs is set.
package daemon

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/orb"
)

// Flags are the shared flags of one daemon, filled in by flag parsing.
type Flags struct {
	name        string
	addr        string
	obsAddr     string
	refFile     string
	dumpDir     string
	qosClasses  string
	tenantRate  float64
	tenantBurst float64
	degradeHigh float64
	degradeLow  float64
}

// ListenFlags declares only -addr (defaulting to addr) and -obs on fs,
// for a daemon that takes none of the ORB tuning flags.
func ListenFlags(fs *flag.FlagSet, name, addr string) *Flags {
	f := &Flags{name: name}
	fs.StringVar(&f.addr, "addr", addr, "listen address")
	fs.StringVar(&f.obsAddr, "obs", "", "serve /metrics, /healthz and /debug endpoints on this address (empty: disabled)")
	return f
}

// ServiceFlags declares the full shared set on fs: ListenFlags plus the
// ref file, anomaly dumps, QoS admission and the degradation controller.
func ServiceFlags(fs *flag.FlagSet, name, addr string) *Flags {
	f := ListenFlags(fs, name, addr)
	fs.StringVar(&f.refFile, "ref-file", "", "write the service SIOR to this file")
	fs.StringVar(&f.dumpDir, "dump-dir", "", "write anomaly flight-recorder dumps here (empty: disabled)")
	fs.StringVar(&f.qosClasses, "qos-classes", "", "per-class dispatch weights, e.g. critical:16,normal:4,batch:1")
	fs.Float64Var(&f.tenantRate, "tenant-rate", 0, "per-tenant admission rate in req/s (0: unlimited)")
	fs.Float64Var(&f.tenantBurst, "tenant-burst", 0, "per-tenant token-bucket burst (0: rate)")
	fs.Float64Var(&f.degradeHigh, "degrade-high", 0, "load score that steps the runtime one degradation mode down (0: controller disabled)")
	fs.Float64Var(&f.degradeLow, "degrade-low", 0.5, "load score that steps the runtime one degradation mode back up")
	return f
}

// options is the ORB configuration the flags select.
func (f *Flags) options() (orb.Options, error) {
	weights, err := orb.ParseClassWeights(f.qosClasses)
	if err != nil {
		return orb.Options{}, fmt.Errorf("-qos-classes: %w", err)
	}
	return orb.Options{Name: f.name, QoS: orb.QoSOptions{
		Weights: weights, TenantRate: f.tenantRate, TenantBurst: f.tenantBurst}}, nil
}

// Daemon is a started bootstrap: termination signals are caught, the ORB
// runs (with its degradation controller when -degrade-high is set) and
// the adapter listens on -addr.
type Daemon struct {
	ORB     *orb.ORB
	Adapter *orb.Adapter
	// Signals receives SIGINT and SIGTERM.
	Signals chan os.Signal

	flags   *Flags
	closers []func()
}

// Start builds the daemon. The signal handler is installed first:
// whoever reads the SIOR may signal at once, and must get a graceful
// shutdown, not Go's default kill.
func (f *Flags) Start() (*Daemon, error) {
	opts, err := f.options()
	if err != nil {
		return nil, err
	}
	d := &Daemon{flags: f, Signals: make(chan os.Signal, 1)}
	signal.Notify(d.Signals, os.Interrupt, syscall.SIGTERM)
	d.closers = append(d.closers, func() { signal.Stop(d.Signals) })
	d.ORB = orb.New(opts)
	d.closers = append(d.closers, d.ORB.Shutdown)
	if f.degradeHigh > 0 {
		d.closers = append(d.closers,
			d.ORB.StartDegradeController(orb.DegradeConfig{High: f.degradeHigh, Low: f.degradeLow}))
		log.Printf("%s: adaptive degradation on (high %.2f, low %.2f)", f.name, f.degradeHigh, f.degradeLow)
	}
	if d.Adapter, err = d.ORB.NewAdapter(f.addr); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// Announce publishes ref: it prints the SIOR line, then with -obs serves
// the observability endpoint (register adds the daemon's own probes and
// metrics first) and prints its OBS: line, then writes -ref-file.
func (d *Daemon) Announce(ref orb.ObjectRef, register func(*obs.Observer)) error {
	f := d.flags
	sior := ref.ToString()
	fmt.Println(sior)
	if f.obsAddr != "" {
		ob, ln, err := d.ORB.ObserveOpts(f.name, f.obsAddr,
			obs.ObserverOptions{Anomaly: obs.AnomalyOptions{DumpDir: f.dumpDir}})
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		d.closers = append(d.closers, func() { ln.Close() })
		if register != nil {
			register(ob)
		}
		fmt.Println("OBS:" + ln.Addr().String())
		log.Printf("%s: observability on http://%s/metrics", f.name, ln.Addr())
	}
	if f.refFile != "" {
		if err := os.WriteFile(f.refFile, []byte(sior+"\n"), 0o644); err != nil {
			return fmt.Errorf("write ref file: %w", err)
		}
	}
	log.Printf("%s: serving on %s", f.name, d.Adapter.Addr())
	return nil
}

// Wait blocks until SIGINT or SIGTERM.
func (d *Daemon) Wait() { <-d.Signals }

// Close stops what Start and Announce started, in reverse order.
func (d *Daemon) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}
