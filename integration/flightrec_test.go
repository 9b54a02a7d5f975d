// Flight-recorder chaos: an observed in-process deployment loses a
// worker mid-run. The forced failover drives the FT proxy's
// recovery path, which signals the process-wide anomaly sink; the sink
// auto-dumps the flight recorder to a JSON artifact. The assertions
// check the black box actually captured the incident: records written
// before the crash carry nonzero queue-wait (the victim ran a
// one-worker dispatch pool under a concurrent burst) and the sampled
// root trace id, so an operator can pivot from the dump straight into
// /debug/traces. With FLIGHTREC_ARTIFACT set the dump is copied there
// for CI upload.
package integration

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
)

// slowCounter is a checkpointable counter whose inc holds the worker
// for a few milliseconds — long enough that a concurrent burst against
// a WorkerPool:1 ORB accumulates real dispatch-queue wait.
type slowCounter struct {
	mu    sync.Mutex
	value int64
	delay time.Duration
}

func (c *slowCounter) TypeID() string { return "IDL:repro/Counter:1.0" }

func (c *slowCounter) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "inc":
		by := in.GetInt64()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		time.Sleep(c.delay)
		c.mu.Lock()
		c.value += by
		v := c.value
		c.mu.Unlock()
		out.PutInt64(v)
		return nil
	default:
		return orb.BadOperation(op)
	}
}

func (c *slowCounter) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cdr.NewEncoder(8)
	e.PutInt64(c.value)
	return e.Bytes(), nil
}

func (c *slowCounter) Restore(data []byte) error {
	d := cdr.NewDecoder(data)
	v := d.GetInt64()
	if err := d.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.value = v
	c.mu.Unlock()
	return nil
}

// flightDump mirrors the anomaly-dump JSON artifact shape.
type flightDump struct {
	Service string `json:"service"`
	Anomaly struct {
		Kind string `json:"kind"`
	} `json:"anomaly"`
	Records []struct {
		Side        string `json:"side"`
		Op          string `json:"op"`
		QueueWaitNS int64  `json:"queue_wait_ns"`
		ServiceNS   int64  `json:"service_ns"`
		Outcome     string `json:"outcome"`
		TraceID     string `json:"trace_id"`
	} `json:"records"`
	Goroutines  string `json:"goroutines"`
	HeapProfile string `json:"heap_profile"`
}

func TestFlightRecorderChaosDump(t *testing.T) {
	ctx := context.Background()
	dumpDir := t.TempDir()

	// Recovery bursts normally need 8 occurrences in 10s; one forced
	// failover is the whole incident here, so trip on the first.
	ob := obs.NewObserverOpts("it-flightrec", obs.ObserverOptions{
		Anomaly: obs.AnomalyOptions{
			DumpDir:  dumpDir,
			Cooldown: time.Minute,
			Bursts: map[obs.AnomalyKind]obs.BurstRule{
				obs.AnomalyRecovery: {Threshold: 1, Window: time.Minute},
			},
		},
	})
	obs.SetDefaultAnomalies(ob.Anomalies)
	t.Cleanup(func() { obs.SetDefaultAnomalies(nil) })

	// Services process: naming + in-memory checkpoint store.
	services := orb.New(orb.Options{Name: "frec-services"})
	t.Cleanup(services.Shutdown)
	svcAd, err := services.NewAdapter("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := naming.NewRegistry()
	nsRef := svcAd.Activate(naming.DefaultKey, naming.NewServant(reg, naming.RoundRobinSelector()))
	storeRef := svcAd.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))

	client := orb.New(orb.Options{Name: "frec-client", CallInterceptors: []orb.CallInterceptor{ob}})
	t.Cleanup(client.Shutdown)
	client.AttachFlightRecorder(ob.Flight)
	ns := naming.NewClient(client, nsRef)
	store := ft.NewStoreClient(client, storeRef)

	// Two workers, each a one-worker dispatch pool over a slow servant,
	// both feeding the shared flight recorder.
	name := naming.NewName("frec", "counter")
	if err := ns.BindNewContext(ctx, naming.NewName("frec")); err != nil {
		t.Fatal(err)
	}
	type workerProc struct {
		o   *orb.ORB
		ad  *orb.Adapter
		ref orb.ObjectRef
		ctr *slowCounter
	}
	newWorker := func(orbName, host string) *workerProc {
		w := &workerProc{o: orb.New(orb.Options{Name: orbName, WorkerPool: 1})}
		t.Cleanup(w.o.Shutdown)
		ad, err := w.o.NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w.ad = ad
		w.o.AttachFlightRecorder(ob.Flight)
		w.ctr = &slowCounter{delay: 2 * time.Millisecond}
		w.ref = ad.Activate("ctr", ft.Wrap(w.ctr))
		if err := ns.BindOffer(ctx, name, w.ref, host); err != nil {
			t.Fatal(err)
		}
		return w
	}
	wA := newWorker("frec-workerA", "hostA")
	wB := newWorker("frec-workerB", "hostB")

	proxy, err := ft.NewProxy(ctx, client, name, ns, store,
		ft.Policy{CheckpointEvery: 1}, ft.WithUnbinder(ns))
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := wA, wB
	if proxy.Ref() == wB.ref {
		victim, survivor = wB, wA
	}

	rctx, root := ob.Tracer.Start(ctx, "it.flightrec")
	traceID := root.Context().TraceID.String()

	inc := func(ctx context.Context, by int64) (int64, error) {
		var v int64
		err := proxy.Call(ctx, "inc",
			func(e *cdr.Encoder) { e.PutInt64(by) },
			func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() })
		return v, err
	}

	// Establish checkpointed state on the bound worker.
	if v, err := inc(rctx, 10); err != nil || v != 10 {
		t.Fatalf("first inc = %d, %v", v, err)
	}

	// Concurrent burst straight at the victim: 8 callers racing into a
	// one-worker pool, so most dispatches queue before they run. These
	// are the "seconds before the anomaly" the black box must hold.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_ = client.Call(rctx, victim.ref, "inc",
					func(e *cdr.Encoder) { e.PutInt64(0) }, nil)
			}
		}()
	}
	wg.Wait()

	// Kill the bound worker mid-run: the next proxied call hits
	// COMM_FAILURE, the proxy recovers (re-resolve + restore + replay),
	// and the recovery signal trips the anomaly sink.
	victim.ad.Close()
	victim.o.Shutdown()
	v, err := inc(rctx, 5)
	if err != nil {
		t.Fatalf("inc after worker crash: %v", err)
	}
	if v != 15 {
		t.Fatalf("value after recovery = %d, want 15", v)
	}
	if got := survivor.ctr.value; got != 15 {
		t.Fatalf("survivor state = %d, want 15", got)
	}
	root.End()

	ob.Anomalies.Wait()
	dumps := ob.Anomalies.Dumps()
	if len(dumps) == 0 {
		t.Fatalf("worker crash tripped no flight-recorder dump (recent anomalies: %+v)", ob.Anomalies.Recent())
	}

	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump %s is not valid JSON: %v", dumps[0], err)
	}
	if dump.Service != "it-flightrec" {
		t.Errorf("dump service = %q, want it-flightrec", dump.Service)
	}
	if dump.Anomaly.Kind != string(obs.AnomalyRecovery) {
		t.Errorf("dump anomaly kind = %q, want %q", dump.Anomaly.Kind, obs.AnomalyRecovery)
	}
	if len(dump.Records) == 0 {
		t.Fatal("dump carries no flight records")
	}
	if dump.Goroutines == "" || !strings.Contains(dump.Goroutines, "goroutine") {
		t.Error("dump carries no goroutine profile")
	}
	if dump.HeapProfile == "" {
		t.Error("dump names no heap profile sibling")
	} else if _, err := os.Stat(filepath.Join(dumpDir, dump.HeapProfile)); err != nil {
		t.Errorf("heap profile sibling missing: %v", err)
	}

	// The incident must be reconstructable from the records alone: server
	// dispatches that waited in the victim's queue, linked to the
	// client's root trace.
	var queued, traced, queuedAndTraced int
	for _, r := range dump.Records {
		if r.Side != "server" || r.Op != "inc" {
			continue
		}
		if r.QueueWaitNS > 0 {
			queued++
		}
		if r.TraceID == traceID {
			traced++
		}
		if r.QueueWaitNS > 0 && r.TraceID == traceID {
			queuedAndTraced++
		}
	}
	if queuedAndTraced == 0 {
		t.Errorf("no server record has both nonzero queue-wait and the root trace id (queued=%d traced=%d of %d records)",
			queued, traced, len(dump.Records))
	}
	t.Logf("dump %s: %d records, %d queued, %d trace-linked", filepath.Base(dumps[0]), len(dump.Records), queued, queuedAndTraced)

	// Export the artifact for CI upload when the harness asks for it.
	if art := os.Getenv("FLIGHTREC_ARTIFACT"); art != "" {
		if err := os.WriteFile(art, raw, 0o644); err != nil {
			t.Fatalf("FLIGHTREC_ARTIFACT: %v", err)
		}
		t.Logf("flight-recorder dump exported to %s", art)
	}
}
