package ft

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/naming"
	"repro/internal/orb"
)

// raceEnabled is set in race_test.go: under the race detector sync.Pool
// drops what it is given, so allocation ceilings do not hold there.
var raceEnabled bool

// allocatedBytes reports the heap bytes f allocates: the least of three
// runs, since TotalAlloc is process-wide and one reading can take in what
// another goroutine allocated meanwhile.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// allocsPerCall runs f calls times with the collector off and returns the
// objects and bytes allocated per call. A collection empties the sync.Pools
// the data path recycles its buffers through, so with it on the figure
// would depend on when collections happen to fall.
func allocsPerCall(calls int, f func()) (objects, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls), float64(after.TotalAlloc-before.TotalAlloc) / float64(calls)
}

// TestProxiedCallAllocationCeiling is the hard ceiling on what a proxied
// call checkpointing after every call allocates, from the allocator's own
// counters over a few hundred calls, no timing, every end included: the
// servant, its ORB, the client, the proxy and a store service on an ORB of
// its own. A call costs at most 19 objects, on a 528 B state as on a
// 64 KiB one, and at most 1.5 times a 64 KiB state's size in bytes: the
// servant's Checkpoint(), which its Wrapper keeps as the next delta base,
// is the one copy left. The reply carries a delta of the one element that
// changed, the proxy relays it to the store, and proxy and store patch
// their bases in place, where a full reply cost two more copies (the
// reply context and the client's copy of it).
func TestProxiedCallAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it is given under the race detector")
	}
	for _, c := range []struct {
		dim        int
		maxObjects float64
		maxBytes   float64
	}{
		{64, 19, math.Inf(1)},
		{8192, 19, 1.5 * (16 + 8*8192)},
	} {
		srv := orb.New(orb.Options{Name: "alloc-srv"})
		t.Cleanup(srv.Shutdown)
		ad, err := srv.NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ref := ad.Activate("state", Wrap(newBenchState(c.dim)))
		stores := orb.New(orb.Options{Name: "alloc-store"})
		t.Cleanup(stores.Shutdown)
		sad, err := stores.NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli := orb.New(orb.Options{Name: "alloc-cli"})
		t.Cleanup(cli.Shutdown)
		store := NewStoreClient(cli, sad.Activate(StoreDefaultKey, NewStoreServant(NewMemStore())))
		p, err := NewProxy(context.Background(), cli, naming.NewName("alloc"),
			&benchResolver{ref: ref}, store, Policy{CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		var i int64
		call := func() {
			i++
			if _, err := bump(p, i%int64(c.dim)); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 100; k++ {
			call()
		}
		objects, bytes := allocsPerCall(300, call)
		t.Logf("%d B state: %.2f objects, %.0f bytes per call", 16+8*c.dim, objects, bytes)
		if objects > c.maxObjects || bytes > c.maxBytes {
			t.Errorf("a proxied call on a %d B state allocates %.2f objects and %.0f bytes, ceiling %v objects and %v bytes",
				16+8*c.dim, objects, bytes, c.maxObjects, c.maxBytes)
		}
		if st := p.Stats(); st.Checkpoints != uint64(i) || st.CheckpointFailures != 0 {
			t.Fatalf("stats = %+v after %d calls", st, i)
		}
	}
}
