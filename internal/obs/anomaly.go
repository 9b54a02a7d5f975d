package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// AnomalyKind names one class of runtime anomaly that can trip the
// flight-recorder dump.
type AnomalyKind string

// Anomaly kinds. Breaker opens and queue saturation are reported as
// occurrences and trip once their burst rule fires; a single breaker
// open has a rule threshold of 1, so it trips immediately.
const (
	// AnomalyBreakerOpen fires when a circuit breaker transitions to open.
	AnomalyBreakerOpen AnomalyKind = "breaker_open"
	// AnomalyQueueSaturated fires when the reactor finds the dispatch
	// queue full at admission.
	AnomalyQueueSaturated AnomalyKind = "dispatch_queue_saturated"
	// AnomalyDeadlineShed accumulates deadline-expired sheds; a burst
	// trips as "deadline_shed".
	AnomalyDeadlineShed AnomalyKind = "deadline_shed"
	// AnomalyRecovery accumulates client-side recoveries (failover +
	// checkpoint restore); a burst trips as a recovery storm.
	AnomalyRecovery AnomalyKind = "recovery"
	// AnomalyAdmissionShed accumulates QoS admission rejections (queue
	// caps, tenant throttles, degraded-mode gates); a burst trips when
	// shedding turns from incidental into sustained.
	AnomalyAdmissionShed AnomalyKind = "admission_shed"
	// AnomalyDegradeMode fires on every degradation-controller mode
	// transition (via SignalTrip, with the transition as detail).
	AnomalyDegradeMode AnomalyKind = "degrade_mode"
)

// BurstRule trips an anomaly when Threshold occurrences land within
// Window. Threshold 1 trips on every (cooldown-limited) occurrence.
type BurstRule struct {
	Threshold int
	Window    time.Duration
}

// Anomaly is one tripped anomaly: what fired and why.
type Anomaly struct {
	Kind   AnomalyKind `json:"kind"`
	Detail string      `json:"detail,omitempty"`
	Time   time.Time   `json:"time"`
	// Count is how many occurrences accumulated inside the burst window.
	Count int `json:"count"`
}

// AnomalyOptions configures the sink.
type AnomalyOptions struct {
	// DumpDir is where flight-recorder dumps are written; empty disables
	// dumping (anomalies are still counted and reported to OnAnomaly).
	DumpDir string
	// Cooldown is the minimum interval between dumps of the same kind
	// (default 30s) so a flapping breaker can't fill the disk.
	Cooldown time.Duration
	// Bursts overrides the per-kind burst rules (see defaultBurstRules).
	Bursts map[AnomalyKind]BurstRule
	// OnAnomaly, when set, is called (on the tripping goroutine, before
	// the asynchronous dump) for every tripped anomaly.
	OnAnomaly func(Anomaly)
}

func defaultBurstRules() map[AnomalyKind]BurstRule {
	return map[AnomalyKind]BurstRule{
		AnomalyBreakerOpen:    {Threshold: 1, Window: time.Second},
		AnomalyQueueSaturated: {Threshold: 4, Window: 5 * time.Second},
		AnomalyDeadlineShed:   {Threshold: 16, Window: 10 * time.Second},
		AnomalyRecovery:       {Threshold: 8, Window: 10 * time.Second},
		AnomalyAdmissionShed:  {Threshold: 32, Window: 10 * time.Second},
		AnomalyDegradeMode:    {Threshold: 1, Window: time.Second},
	}
}

// Anomalies is the anomaly sink: hot paths report occurrences, the sink
// applies burst rules, and a trip snapshots the flight recorder (plus
// goroutine and heap profiles) into a JSON dump — the black box is
// written out the moment something goes wrong, not when an operator
// gets around to it.
type Anomalies struct {
	service string
	flight  *FlightRecorder
	opts    AnomalyOptions
	rules   map[AnomalyKind]BurstRule

	mu       sync.Mutex
	windows  map[AnomalyKind][]time.Time
	lastDump map[AnomalyKind]time.Time
	recent   []Anomaly // last few trips, newest last, for /healthz
	dumps    []string  // paths of dumps written

	trips   CounterVec
	tripped atomic.Uint64
	wg      sync.WaitGroup
}

// NewAnomalies builds a sink that snapshots flight (may be nil: dumps
// then carry no records).
func NewAnomalies(service string, flight *FlightRecorder, opts AnomalyOptions) *Anomalies {
	if opts.Cooldown <= 0 {
		opts.Cooldown = 30 * time.Second
	}
	rules := defaultBurstRules()
	for k, r := range opts.Bursts {
		rules[k] = r
	}
	return &Anomalies{
		service:  service,
		flight:   flight,
		opts:     opts,
		rules:    rules,
		windows:  make(map[AnomalyKind][]time.Time),
		lastDump: make(map[AnomalyKind]time.Time),
		trips:    CounterVec{fname: "obs_anomaly_trips_total", labels: []string{"kind"}, series: make(map[string]*counterSeries)},
	}
}

// ExportMetrics registers obs_anomaly_trips_total{kind} with reg.
func (a *Anomalies) ExportMetrics(reg *Registry) {
	a.trips.help = "Anomalies tripped, by kind."
	reg.register(&a.trips)
}

// Occur reports one occurrence of kind; the burst rule decides whether
// it trips. Safe from hot paths — the common (non-tripping) case is one
// mutex and a slice append into a reused window buffer.
func (a *Anomalies) Occur(kind AnomalyKind) { a.occur(kind, "") }

// Trip reports an anomaly that should fire regardless of burst
// accounting (threshold-1 semantics) with a human-readable detail.
func (a *Anomalies) Trip(kind AnomalyKind, detail string) {
	a.fire(kind, detail, 1, time.Now())
}

func (a *Anomalies) occur(kind AnomalyKind, detail string) {
	rule, ok := a.rules[kind]
	if !ok {
		rule = BurstRule{Threshold: 1, Window: time.Second}
	}
	now := time.Now()
	a.mu.Lock()
	w := a.windows[kind]
	// Drop occurrences that fell out of the window.
	keep := w[:0]
	for _, t := range w {
		if now.Sub(t) <= rule.Window {
			keep = append(keep, t)
		}
	}
	keep = append(keep, now)
	a.windows[kind] = keep
	n := len(keep)
	burst := n >= rule.Threshold
	if burst {
		// Reset the window so a sustained condition re-trips only after
		// accumulating a fresh burst (the cooldown limits dumping anyway).
		a.windows[kind] = keep[:0]
	}
	a.mu.Unlock()
	if burst {
		a.fire(kind, detail, n, now)
	}
}

// fire records a tripped anomaly and, cooldown permitting, dumps.
func (a *Anomalies) fire(kind AnomalyKind, detail string, count int, now time.Time) {
	an := Anomaly{Kind: kind, Detail: detail, Time: now, Count: count}
	a.tripped.Add(1)
	a.trips.With1(string(kind)).Inc()

	a.mu.Lock()
	a.recent = append(a.recent, an)
	if len(a.recent) > 32 {
		a.recent = a.recent[len(a.recent)-32:]
	}
	dump := a.opts.DumpDir != "" && now.Sub(a.lastDump[kind]) >= a.opts.Cooldown
	if dump {
		a.lastDump[kind] = now
	}
	a.mu.Unlock()

	if a.opts.OnAnomaly != nil {
		a.opts.OnAnomaly(an)
	}
	if dump {
		// Dump off the tripping goroutine: trips come from hot paths and
		// breaker-internal locks, and the dump does file IO and profile
		// collection.
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			if path, err := a.writeDump(an); err != nil {
				log.Printf("obs: anomaly dump failed: %v", err)
			} else {
				a.mu.Lock()
				a.dumps = append(a.dumps, path)
				a.mu.Unlock()
				log.Printf("obs: anomaly %s tripped, flight recorder dumped to %s", kind, path)
			}
		}()
	}
}

// Tripped returns the total number of anomalies tripped.
func (a *Anomalies) Tripped() uint64 { return a.tripped.Load() }

// Recent returns the most recent trips, oldest first.
func (a *Anomalies) Recent() []Anomaly {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Anomaly(nil), a.recent...)
}

// Dumps returns the paths of dump artifacts written so far.
func (a *Anomalies) Dumps() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.dumps...)
}

// Wait blocks until in-flight dump writes finish — for tests and
// orderly shutdown.
func (a *Anomalies) Wait() { a.wg.Wait() }

// anomalyDump is the JSON artifact layout.
type anomalyDump struct {
	Service    string             `json:"service"`
	Anomaly    Anomaly            `json:"anomaly"`
	DumpedAt   time.Time          `json:"dumped_at"`
	Records    []flightRecordJSON `json:"records"`
	Goroutines string             `json:"goroutines"`
	HeapFile   string             `json:"heap_profile,omitempty"`
}

// writeDump writes the flight-recorder snapshot, an aggregated goroutine
// profile and a heap profile for anomaly an, returning the JSON path.
func (a *Anomalies) writeDump(an Anomaly) (string, error) {
	if err := os.MkdirAll(a.opts.DumpDir, 0o755); err != nil {
		return "", err
	}
	stem := fmt.Sprintf("flightrec-%s-%s-%d", sanitize(a.service), sanitize(string(an.Kind)), an.Time.UnixNano())
	path := filepath.Join(a.opts.DumpDir, stem+".json")

	var recs []FlightRecord
	if a.flight != nil {
		recs = a.flight.Snapshot()
	}
	var gbuf bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&gbuf, 1)
	}
	d := anomalyDump{
		Service:    a.service,
		Anomaly:    an,
		DumpedAt:   time.Now(),
		Records:    recordsToJSON(recs),
		Goroutines: gbuf.String(),
	}
	// Heap profile rides along as a sibling pprof file (binary format;
	// useless inlined in JSON).
	heapPath := filepath.Join(a.opts.DumpDir, stem+".heap.pb.gz")
	if hf, err := os.Create(heapPath); err == nil {
		if p := pprof.Lookup("heap"); p != nil && p.WriteTo(hf, 0) == nil {
			d.HeapFile = filepath.Base(heapPath)
		}
		hf.Close()
	}
	raw, err := json.MarshalIndent(&d, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitize keeps dump filenames shell-friendly.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// defaultAnomalies is the process-wide sink that library layers (orb's
// breaker and reactor, ft's recovery path) report into without plumbing
// a handle through every constructor — same pattern as the Default
// tracer. Nil until a daemon wires one; reporting is then a single
// atomic load and nil check.
var defaultAnomalies atomic.Pointer[Anomalies]

// SetDefaultAnomalies installs (or, with nil, clears) the process-wide
// anomaly sink.
func SetDefaultAnomalies(a *Anomalies) { defaultAnomalies.Store(a) }

// Signal reports one occurrence of kind to the default sink, if any.
// This is the hot-path entry point: with no sink installed it is one
// atomic load.
func Signal(kind AnomalyKind) {
	if a := defaultAnomalies.Load(); a != nil {
		a.Occur(kind)
	}
}

// SignalTrip trips kind on the default sink immediately (no burst
// accounting), if one is installed.
func SignalTrip(kind AnomalyKind, detail string) {
	if a := defaultAnomalies.Load(); a != nil {
		a.Trip(kind, detail)
	}
}
