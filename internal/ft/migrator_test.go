package ft

import (
	"context"
	"testing"

	"repro/internal/winner"
)

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
