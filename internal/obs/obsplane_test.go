package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingSemantics(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Record(FlightRecord{Time: int64(i), Op: "op", Service: int64(i)})
	}
	if got := f.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := f.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(snap))
	}
	// Oldest-first: records 2..5 survive, 0 and 1 were overwritten.
	for i, r := range snap {
		if r.Time != int64(i+2) {
			t.Fatalf("snapshot[%d].Time = %d, want %d", i, r.Time, i+2)
		}
	}
}

func TestFlightRecordOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeOK:              "ok",
		OutcomeUserException:   "user_exception",
		OutcomeSystemException: "system_exception",
		OutcomeForward:         "forward",
		OutcomeShed:            "shed",
		OutcomeOneway:          "oneway",
		OutcomeTransportError:  "transport_error",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestFlightRecordJSONCarriesTraceAndTimes(t *testing.T) {
	f := NewFlightRecorder(8)
	tr := newTraceID()
	f.Record(FlightRecord{
		Time: time.Now().UnixNano(), Op: "solve", Peer: "10.0.0.1:1234",
		Side: SideServer, Bytes: 64, QueueWait: 1500, Service: 42000,
		Outcome: OutcomeOK, Trace: tr,
	})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r["trace_id"] != tr.String() {
		t.Errorf("trace_id = %v, want %s", r["trace_id"], tr)
	}
	if r["queue_wait_ns"] != float64(1500) {
		t.Errorf("queue_wait_ns = %v, want 1500", r["queue_wait_ns"])
	}
	if r["outcome"] != "ok" || r["side"] != "server" {
		t.Errorf("outcome/side = %v/%v", r["outcome"], r["side"])
	}
}

func TestAnomalyBurstRuleAndDump(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(16)
	f.Record(FlightRecord{Op: "solve", QueueWait: 999, Outcome: OutcomeShed})
	var fired []Anomaly
	var mu sync.Mutex
	a := NewAnomalies("testsvc", f, AnomalyOptions{
		DumpDir: dir,
		Bursts:  map[AnomalyKind]BurstRule{AnomalyDeadlineShed: {Threshold: 3, Window: time.Minute}},
		OnAnomaly: func(an Anomaly) {
			mu.Lock()
			fired = append(fired, an)
			mu.Unlock()
		},
	})
	a.Occur(AnomalyDeadlineShed)
	a.Occur(AnomalyDeadlineShed)
	if a.Tripped() != 0 {
		t.Fatal("tripped before the burst threshold")
	}
	a.Occur(AnomalyDeadlineShed)
	if a.Tripped() != 1 {
		t.Fatalf("Tripped = %d, want 1", a.Tripped())
	}
	a.Wait()
	mu.Lock()
	if len(fired) != 1 || fired[0].Kind != AnomalyDeadlineShed || fired[0].Count != 3 {
		t.Fatalf("OnAnomaly got %+v", fired)
	}
	mu.Unlock()

	dumps := a.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Service string `json:"service"`
		Anomaly Anomaly
		Records []struct {
			Op          string `json:"op"`
			QueueWaitNS int64  `json:"queue_wait_ns"`
		} `json:"records"`
		Goroutines string `json:"goroutines"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Service != "testsvc" || len(d.Records) != 1 || d.Records[0].QueueWaitNS != 999 {
		t.Fatalf("dump contents wrong: %+v", d)
	}
	if !strings.Contains(d.Goroutines, "goroutine") {
		t.Error("dump carries no goroutine profile")
	}
	// The heap profile rides as a sibling file.
	heaps, _ := filepath.Glob(filepath.Join(dir, "*.heap.pb.gz"))
	if len(heaps) != 1 {
		t.Errorf("got %d heap profiles, want 1", len(heaps))
	}
}

func TestAnomalyCooldownLimitsDumps(t *testing.T) {
	dir := t.TempDir()
	a := NewAnomalies("svc", nil, AnomalyOptions{DumpDir: dir, Cooldown: time.Hour})
	a.Trip(AnomalyBreakerOpen, "ep1")
	a.Trip(AnomalyBreakerOpen, "ep2")
	a.Wait()
	if got := len(a.Dumps()); got != 1 {
		t.Fatalf("got %d dumps inside the cooldown, want 1", got)
	}
	if a.Tripped() != 2 {
		t.Fatalf("Tripped = %d, want 2 (cooldown gates dumps, not counting)", a.Tripped())
	}
}

func TestDefaultAnomalySink(t *testing.T) {
	Signal(AnomalyRecovery) // no sink: must not panic
	a := NewAnomalies("svc", nil, AnomalyOptions{})
	SetDefaultAnomalies(a)
	defer SetDefaultAnomalies(nil)
	SignalTrip(AnomalyBreakerOpen, "x")
	if a.Tripped() != 1 {
		t.Fatalf("Tripped = %d, want 1", a.Tripped())
	}
}

func TestHealthAggregation(t *testing.T) {
	h := NewHealth()
	h.Register("good", func() error { return nil })
	rep := h.Check()
	if !rep.OK() || rep.Status != "ok" {
		t.Fatalf("healthy report degraded: %+v", rep)
	}
	h.Register("bad", func() error { return fmt.Errorf("queue 9/10") })
	rep = h.Check()
	if rep.OK() {
		t.Fatal("report OK with a failing component")
	}
	if c := rep.Components["bad"]; c.OK || c.Detail != "queue 9/10" {
		t.Fatalf("bad component = %+v", c)
	}
	// Re-registering replaces the probe.
	h.Register("bad", func() error { return nil })
	if rep = h.Check(); !rep.OK() {
		t.Fatalf("probe replacement did not take: %+v", rep)
	}
}

func TestHealthEndpoints(t *testing.T) {
	ob := NewObserverOpts("epsvc", ObserverOptions{})
	healthy := true
	ob.Health.Register("thing", func() error {
		if !healthy {
			return fmt.Errorf("down")
		}
		return nil
	})
	srv := httptest.NewServer(ob.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var rep HealthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Service != "epsvc" || !rep.OK() {
		t.Fatalf("healthz report: %+v", rep)
	}
	if code, _ = get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz healthy = %d", code)
	}

	healthy = false
	code, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz must stay 200 when degraded, got %d", code)
	}
	if code, _ = get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz degraded = %d, want 503", code)
	}

	// /debug/flightrec serves the ring as JSON.
	ob.Flight.Record(FlightRecord{Op: "x", Outcome: OutcomeOK})
	code, body = get("/debug/flightrec")
	if code != http.StatusOK {
		t.Fatalf("/debug/flightrec = %d", code)
	}
	var fr struct {
		Service string            `json:"service"`
		Total   uint64            `json:"total"`
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Service != "epsvc" || fr.Total != 1 || len(fr.Records) != 1 {
		t.Fatalf("flightrec doc: %+v", fr)
	}

	// /debug/pprof is wired.
	if code, _ = get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine = %d", code)
	}
}

// TestRegistryConcurrentObserveDuringExport hammers HistogramVec
// With/With1/Observe/ObserveExemplar and CounterVec With/With1 from many
// goroutines while Export runs concurrently — run under -race, this is
// the registry's concurrency contract.
func TestRegistryConcurrentObserveDuringExport(t *testing.T) {
	reg := NewRegistry()
	hv := reg.NewHistogramVec("test_latency_seconds", "h", nil, "op")
	cv := reg.NewCounterVec("test_events_total", "c", "op")
	tr := newTraceID()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := [...]string{"alpha", "beta", "gamma"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := ops[i%len(ops)]
				if i%2 == 0 {
					hv.With1(op).Observe(float64(i%100) / 100)
					cv.With1(op).Inc()
				} else {
					hv.With(op).ObserveExemplar(float64(i%100)/100, tr)
					cv.With(op).Add(2)
				}
			}
		}(g)
	}
	deadline := time.After(200 * time.Millisecond)
	for {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		buf.Reset()
		reg.WriteOpenMetrics(&buf)
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
		}
	}
}

// TestExpositionRoundTrip parses everything an Observer-with-ORB-stats
// registry exports and fails on malformed lines, duplicate metric
// families, or histogram series whose bucket counts are not cumulative.
func TestExpositionRoundTrip(t *testing.T) {
	ob := NewObserverOpts("rtsvc", ObserverOptions{})
	hv := ob.Registry.NewHistogramVec("rt_latency_seconds", "h", nil, "op")
	tr := newTraceID()
	hv.With1("solve").ObserveExemplar(0.042, tr)
	hv.With1("solve").Observe(3)
	ob.Registry.NewCounterVec("rt_events_total", "c", "kind").With1("x").Inc()
	ob.Registry.NewMultiGaugeFunc("rt_conn_inflight", "g", []string{"peer"},
		func(emit func([]string, float64)) {
			emit([]string{"10.0.0.9:44"}, 2)
		})

	for _, exemplars := range []bool{false, true} {
		var buf bytes.Buffer
		if exemplars {
			ob.Registry.WriteOpenMetrics(&buf)
		} else {
			ob.Registry.WritePrometheus(&buf)
		}
		checkExposition(t, buf.String(), exemplars)
	}
}

// checkExposition is a strict line-level parser for the subset of the
// text formats the registry emits.
func checkExposition(t *testing.T, text string, openMetrics bool) {
	t.Helper()
	seenFamily := map[string]bool{}
	var curFamily string
	sawEOF := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case line == "":
			t.Errorf("line %d: blank line in exposition", n)
		case line == "# EOF":
			sawEOF = true
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Errorf("line %d: malformed HELP: %q", n, line)
				continue
			}
			if seenFamily[parts[0]] {
				t.Errorf("line %d: duplicate family %q", n, parts[0])
			}
			seenFamily[parts[0]] = true
			curFamily = parts[0]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || parts[0] != curFamily {
				t.Errorf("line %d: TYPE %q does not follow its HELP (family %q)", n, line, curFamily)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown type %q", n, parts[1])
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unknown comment %q", n, line)
		default:
			sample := line
			if i := strings.Index(line, " # {"); i >= 0 {
				if !openMetrics {
					t.Errorf("line %d: exemplar in plain prometheus output: %q", n, line)
				}
				sample = line[:i]
			}
			fields := strings.Fields(sample)
			if len(fields) < 2 {
				t.Errorf("line %d: malformed sample %q", n, line)
				continue
			}
			name := fields[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if !strings.HasSuffix(name, "}") {
					t.Errorf("line %d: unbalanced label braces: %q", n, line)
				}
				name = name[:i]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !seenFamily[base] && !seenFamily[name] {
				t.Errorf("line %d: sample %q precedes its HELP/TYPE", n, line)
			}
			if _, err := fmt.Sscanf(fields[1], "%f", new(float64)); err != nil {
				t.Errorf("line %d: non-numeric value in %q", n, line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if openMetrics && !sawEOF {
		t.Error("OpenMetrics output missing # EOF")
	}
	if !openMetrics && sawEOF {
		t.Error("plain prometheus output has # EOF")
	}
	// Histogram cumulativity: replay bucket lines per series.
	checkHistogramCumulative(t, text)
}

func checkHistogramCumulative(t *testing.T, text string) {
	t.Helper()
	last := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.Index(line, "_bucket{")
		if i < 0 {
			continue
		}
		sample := line
		if j := strings.Index(sample, " # {"); j >= 0 {
			sample = sample[:j]
		}
		fields := strings.Fields(sample)
		if len(fields) != 2 {
			continue
		}
		// Series identity: full label set minus the le label.
		key := fields[0]
		if j := strings.Index(key, `le="`); j >= 0 {
			k := strings.Index(key[j+4:], `"`)
			key = key[:j] + key[j+4+k+1:]
		}
		var v float64
		fmt.Sscanf(fields[1], "%f", &v)
		if prev, ok := last[key]; ok && v < prev {
			t.Errorf("bucket counts not cumulative at %q: %v < %v", line, v, prev)
		}
		last[key] = v
	}
}

// BenchmarkFlightRecord measures the zero-alloc budget of the
// flight-recorder record path: one record per request at full reactor
// throughput must not touch the allocator.
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightRecorderSize)
	rec := FlightRecord{
		Time: time.Now().UnixNano(), Op: "echo", Peer: "127.0.0.1:9999",
		Side: SideServer, Bytes: 128, QueueWait: 1200, Service: 88000,
		Outcome: OutcomeOK, Trace: newTraceID(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Time = int64(i)
		f.Record(rec)
	}
}
