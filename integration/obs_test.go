// Observability across real daemon processes: every daemon runs with
// -obs, a traced client drives a fault-tolerant call sequence through
// all of them, a worker is killed mid-run, and the assertions check
// that (a) the whole crash-recovery sequence reads as ONE linked trace
// in the client's ring, (b) each daemon's /metrics endpoint exports
// per-method histograms and the ORB retry/recovery counters, and
// (c) the client's trace id shows up in checkpointd's /debug/traces —
// proof that SCTrace propagated across the process border.
package integration

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
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
	"repro/internal/winner"
)

// startObsDaemon launches a daemon built by TestMain with -obs
// 127.0.0.1:0 appended, and returns its SIOR plus the bound
// observability address (second stdout line, "OBS:host:port").
func startObsDaemon(t *testing.T, name string, args ...string) (sior, obsAddr string) {
	t.Helper()
	_, sior, obsAddr = startObsDaemonCmd(t, name, args...)
	return sior, obsAddr
}

// startObsDaemonCmd is startObsDaemon plus the process handle, for tests
// that crash the daemon mid-run.
func startObsDaemonCmd(t *testing.T, name string, args ...string) (cmd *exec.Cmd, sior, obsAddr string) {
	t.Helper()
	cmd = exec.Command(filepath.Join(binDir, name), append(args, "-obs", "127.0.0.1:0")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	lines := make(chan string, 2)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	read := func(what string) string {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before printing its %s", name, what)
			}
			return line
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never printed its %s", name, what)
		}
		return ""
	}
	sior = read("SIOR")
	if !strings.HasPrefix(sior, "SIOR:") {
		t.Fatalf("%s printed %q, want a SIOR", name, sior)
	}
	obsLine := read("OBS line")
	if !strings.HasPrefix(obsLine, "OBS:") {
		t.Fatalf("%s printed %q, want an OBS line", name, obsLine)
	}
	return cmd, sior, strings.TrimPrefix(obsLine, "OBS:")
}

// httpGet fetches a path from a daemon's observability endpoint.
func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// obsCounter is a checkpointable servant for the fault-tolerant call
// sequence under test.
type obsCounter struct {
	mu    sync.Mutex
	value int64
}

func (c *obsCounter) TypeID() string { return "IDL:repro/Counter:1.0" }

func (c *obsCounter) Invoke(_ *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "inc":
		by := in.GetInt64()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		c.value += by
		out.PutInt64(c.value)
		return nil
	default:
		return orb.BadOperation(op)
	}
}

func (c *obsCounter) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cdr.NewEncoder(8)
	e.PutInt64(c.value)
	return e.Bytes(), nil
}

func (c *obsCounter) Restore(data []byte) error {
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

func TestObservabilityAcrossDaemons(t *testing.T) {
	ctx := context.Background()

	winnerSIOR, winnerObs := startObsDaemon(t, "winnerd", "-role", "system", "-addr", "127.0.0.1:0")
	nsSIOR, nsObs := startObsDaemon(t, "nameserver", "-addr", "127.0.0.1:0", "-winner", winnerSIOR)
	storeSIOR, storeObs := startObsDaemon(t, "checkpointd", "-addr", "127.0.0.1:0")

	ob := obs.NewObserver("it-client")
	client := orb.New(orb.Options{Name: "it-obs-client", CallInterceptors: []orb.CallInterceptor{ob}})
	defer client.Shutdown()

	winnerRef, err := orb.RefFromString(winnerSIOR)
	if err != nil {
		t.Fatal(err)
	}
	nsRef, err := orb.RefFromString(nsSIOR)
	if err != nil {
		t.Fatal(err)
	}
	storeRef, err := orb.RefFromString(storeSIOR)
	if err != nil {
		t.Fatal(err)
	}
	wc := winner.NewClient(client, winnerRef)
	ns := naming.NewClient(client, nsRef)
	store := ft.NewStoreClient(client, storeRef)

	// Two in-process workers registered as offers of one name. Winner
	// ranks alpha best, so the proxy binds to worker A first.
	if err := wc.Report(ctx, winner.LoadSample{Host: "alpha", Speed: 1, RunQueue: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Report(ctx, winner.LoadSample{Host: "beta", Speed: 1, RunQueue: 5, Seq: 1}); err != nil {
		t.Fatal(err)
	}

	name := naming.NewName("obs", "counter")
	if err := ns.BindNewContext(ctx, naming.NewName("obs")); err != nil {
		t.Fatal(err)
	}
	type workerProc struct {
		o   *orb.ORB
		ad  *orb.Adapter
		ref orb.ObjectRef
		ctr *obsCounter
	}
	newWorker := func(orbName, host string) *workerProc {
		w := &workerProc{o: orb.New(orb.Options{Name: orbName})}
		t.Cleanup(w.o.Shutdown)
		ad, err := w.o.NewAdapter("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w.ad = ad
		w.ctr = &obsCounter{}
		w.ref = ad.Activate("ctr", ft.Wrap(w.ctr))
		if err := ns.BindOffer(ctx, name, w.ref, host); err != nil {
			t.Fatal(err)
		}
		return w
	}
	wA := newWorker("workerA", "alpha")
	wB := newWorker("workerB", "beta")

	proxy, err := ft.NewProxy(ctx, client, name, ns, store,
		ft.Policy{CheckpointEvery: 1}, ft.WithUnbinder(ns))
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Ref() != wA.ref {
		t.Fatalf("proxy bound %v, want worker A %v (winner ranking ignored?)", proxy.Ref(), wA.ref)
	}

	inc := func(ctx context.Context, by int64) (int64, error) {
		var v int64
		err := proxy.Call(ctx, "inc",
			func(e *cdr.Encoder) { e.PutInt64(by) },
			func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() })
		return v, err
	}

	rctx, root := ob.Tracer.Start(ctx, "it.root")

	// Call 1 lands on worker A and checkpoints value=10 into checkpointd.
	if v, err := inc(rctx, 10); err != nil || v != 10 {
		t.Fatalf("first inc = %d, %v", v, err)
	}

	// Kill worker A mid-run: the next call hits COMM_FAILURE, recovery
	// unbinds the dead offer, re-resolves to worker B, restores the
	// checkpoint there and replays.
	wA.ad.Close()
	wA.o.Shutdown()
	v, err := inc(rctx, 5)
	if err != nil {
		t.Fatalf("inc after worker crash: %v", err)
	}
	if v != 15 {
		t.Fatalf("value after recovery = %d, want 15", v)
	}
	if got := wB.ctr.value; got != 15 {
		t.Fatalf("survivor state = %d, want 15", got)
	}
	root.End()

	// (a) One linked trace in the client's ring.
	traceID := root.Context().TraceID
	var spans []*obs.Span
	for _, s := range ob.Ring.Spans() {
		if s.Context().TraceID == traceID {
			spans = append(spans, s)
		}
	}
	find := func(pred func(*obs.Span) bool) *obs.Span {
		for _, s := range spans {
			if pred(s) {
				return s
			}
		}
		return nil
	}
	failed := find(func(s *obs.Span) bool {
		_, ok := s.Event("comm_failure")
		return s.Name() == "ft.invoke" && ok
	})
	if failed == nil {
		t.Error("no ft.invoke span with a comm_failure event on the trace")
	}
	resolve := find(func(s *obs.Span) bool { return s.Name() == "ft.resolve" })
	if resolve == nil {
		t.Error("no ft.resolve span on the trace")
	} else if addr, _ := resolve.Attr("addr"); addr != wB.ref.Addr {
		t.Errorf("ft.resolve addr = %q, want survivor %q", addr, wB.ref.Addr)
	}
	if find(func(s *obs.Span) bool { return s.Name() == "ft.restore" }) == nil {
		t.Error("no ft.restore span on the trace")
	}
	if find(func(s *obs.Span) bool { return s.Name() == "replay" }) == nil {
		t.Error("no replay span on the trace")
	}
	clientSide := find(func(s *obs.Span) bool {
		side, _ := s.Attr("side")
		return side == "client" && s.Name() == "inc"
	})
	if clientSide == nil {
		t.Error("no client-side inc span on the trace")
	}

	// (b) Every daemon exports per-method histograms and the ORB
	// retry/recovery counters.
	for _, d := range []struct{ name, addr string }{
		{"winnerd", winnerObs}, {"nameserver", nsObs}, {"checkpointd", storeObs},
	} {
		metrics := httpGet(t, d.addr, "/metrics")
		for _, want := range []string{
			"rpc_server_latency_seconds_bucket{",
			"orb_retries_attempted_total",
			"orb_recoveries_succeeded_total",
			"orb_recoveries_failed_total",
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("%s /metrics missing %q", d.name, want)
			}
		}
	}
	// The store served real traffic: its put dispatches are in the
	// histogram with non-zero count.
	if m := httpGet(t, storeObs, "/metrics"); !strings.Contains(m, `rpc_server_latency_seconds_count{method="put"}`) {
		t.Errorf("checkpointd /metrics has no put dispatch count:\n%s", m)
	}

	// (c) Cross-process propagation: checkpointd buffered server spans of
	// the client's trace (checkpoint fetch/store ran inside it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(httpGet(t, storeObs, "/debug/traces?n=100"), traceID.String()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointd /debug/traces never showed client trace %s", traceID)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
