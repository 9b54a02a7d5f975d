package ft

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/winner"
)

var errPingFailed = errors.New("probe failed")

// loadTable is a static RankedLoads for tests.
type loadTable map[string]float64

func (l loadTable) HostEffectiveSpeed(host string) (float64, bool) {
	v, ok := l[host]
	return v, ok
}

func TestMigratorMovesToMuchBetterHost(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 42); err != nil {
		t.Fatal(err)
	}
	// Proxy sits on hostA. hostB is 4x faster → migrate.
	mig := NewMigrator(context.Background(), p,
		MigrateOffers(w.naming), MigrateLoads(loadTable{"hostA": 0.25, "hostB": 1.0}),
		MigrateMinImprovement(2))
	host, err := mig.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if host != "hostB" {
		t.Fatalf("migrated to %q", host)
	}
	if w.ctrB.value != 42 {
		t.Fatalf("state not migrated: %d", w.ctrB.value)
	}
	if mig.Migrations() != 1 {
		t.Fatalf("migrations = %d", mig.Migrations())
	}
	// Calls continue against the new host.
	if v, err := inc(p, 1); err != nil || v != 43 {
		t.Fatalf("post-migration inc = %d, %v", v, err)
	}
}

func TestMigratorStaysOnSlightImprovement(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 1); err != nil {
		t.Fatal(err)
	}
	mig := NewMigrator(context.Background(), p,
		MigrateOffers(w.naming), MigrateLoads(loadTable{"hostA": 1.0, "hostB": 1.2}),
		MigrateMinImprovement(1.5))
	host, err := mig.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if host != "" {
		t.Fatalf("migrated to %q for a 1.2x gain", host)
	}
	if mig.Migrations() != 0 {
		t.Fatal("migration counted")
	}
}

func TestMigratorUnknownLoadsNoMove(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	mig := NewMigrator(context.Background(), p, MigrateOffers(w.naming), MigrateLoads(loadTable{}))
	host, err := mig.Step(context.Background())
	if err != nil || host != "" {
		t.Fatalf("step = %q, %v", host, err)
	}
}

func TestMigratorWithWinnerManager(t *testing.T) {
	w := newFTWorld(t)
	p := w.newProxy(Policy{CheckpointEvery: 1})
	if _, err := inc(p, 5); err != nil {
		t.Fatal(err)
	}
	mgr := winner.NewManager()
	mgr.Report(winner.LoadSample{Host: "hostA", Speed: 1, RunQueue: 3, Seq: 1}) // eff 0.25
	mgr.Report(winner.LoadSample{Host: "hostB", Speed: 1, RunQueue: 0, Seq: 1}) // eff 1.0
	mig := NewMigrator(context.Background(), p,
		MigrateOffers(w.naming), MigrateLoads(mgr), MigrateMinImprovement(2))
	host, err := mig.Step(context.Background())
	if err != nil || host != "hostB" {
		t.Fatalf("step = %q, %v", host, err)
	}
}

func TestDetectorUnbindsDeadOffer(t *testing.T) {
	w := newFTWorld(t)
	det := NewDetector(w.client, w.naming, DetectorOptions{Suspicions: 2})
	det.Watch(w.name)

	// All alive: nothing happens.
	if n := det.Step(context.Background()); n != 0 {
		t.Fatalf("step removed %d offers", n)
	}
	// Kill server A. First step only raises suspicion, second unbinds.
	w.adA.Close()
	w.srvA.Shutdown()
	if n := det.Step(context.Background()); n != 0 {
		t.Fatalf("unbound after one suspicion: %d", n)
	}
	if n := det.Step(context.Background()); n != 1 {
		t.Fatalf("second step unbound %d", n)
	}
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil || len(offers) != 1 || offers[0].Host != "hostB" {
		t.Fatalf("offers = %+v, %v", offers, err)
	}
	if det.Removed() != 1 {
		t.Fatalf("removed = %d", det.Removed())
	}
}

func TestDetectorRecoveredServerClearsSuspicion(t *testing.T) {
	w := newFTWorld(t)
	det := NewDetector(&flakyPinger{orb: w.client, failures: 1}, w.naming, DetectorOptions{Suspicions: 2})
	det.Watch(w.name)
	det.Step(context.Background()) // every offer fails once (suspicion 1)
	det.Step(context.Background()) // pinger healthy again: suspicion cleared
	if n := det.Removed(); n != 0 {
		t.Fatalf("removed = %d after transient failure", n)
	}
	det.Step(context.Background())
	if n := det.Removed(); n != 0 {
		t.Fatalf("removed = %d", n)
	}
}

// flakyPinger fails the first `failures` probes of every offer, then
// delegates to the real ORB.
type flakyPinger struct {
	orb   Pinger
	count int
	// failures is the number of initial global probe rounds that fail.
	failures int
}

func (f *flakyPinger) Ping(ctx context.Context, ref orb.ObjectRef) error {
	if f.count < f.failures*2 { // 2 offers per round in ftWorld
		f.count++
		return errPingFailed
	}
	return f.orb.Ping(ctx, ref)
}

func TestDetectorStartStop(t *testing.T) {
	w := newFTWorld(t)
	det := NewDetector(w.client, w.naming, DetectorOptions{Suspicions: 1, Period: 5 * time.Millisecond})
	det.Watch(w.name)
	det.Start()
	det.Start() // idempotent
	w.adA.Close()
	w.srvA.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for det.Removed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detector never unbound the dead offer")
		}
		time.Sleep(time.Millisecond)
	}
	det.Stop()
	det.Stop() // idempotent
}

func TestDetectorStopWithoutStart(t *testing.T) {
	w := newFTWorld(t)
	det := NewDetector(w.client, w.naming, DetectorOptions{})
	det.Stop() // must not hang
}
