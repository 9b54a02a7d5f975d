package integration

import (
	"context"
	"syscall"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// TestDaemonsExitGracefullyOnImmediateSignal signals each daemon the
// moment its SIOR line is read: whoever reads a daemon's reference may
// stop it at once, and must get a clean shutdown rather than Go's default
// kill. A workerd announced to naming must withdraw its leased offer on
// the way out instead of leaving it to linger until the TTL runs out.
func TestDaemonsExitGracefullyOnImmediateSignal(t *testing.T) {
	nsSIOR := startDaemon(t, "nameserver", "-addr", "127.0.0.1:0")
	const ttl = 30 * time.Second
	cases := []struct {
		name   string
		daemon string
		args   []string
	}{
		{"nameserver", "nameserver", nil},
		{"winnerd", "winnerd", []string{"-role", "system"}},
		{"checkpointd", "checkpointd", nil},
		{"workerd", "workerd", nil},
		{"workerd-announced", "workerd", []string{"-ns", nsSIOR, "-host", "sigtest", "-ttl", ttl.String()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd, sior := startDaemonCmd(t, c.daemon, append([]string{"-addr", "127.0.0.1:0"}, c.args...)...)
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s exited with %v after an immediate SIGTERM, want a clean exit", c.daemon, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s still running 10s after SIGTERM", c.daemon)
			}
			if c.name != "workerd-announced" {
				return
			}
			ref, err := orb.RefFromString(sior)
			if err != nil {
				t.Fatal(err)
			}
			client := orb.New(orb.Options{Name: "it-signal"})
			defer client.Shutdown()
			nsRef, err := orb.RefFromString(nsSIOR)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// The group goes when its last offer does.
			offers, err := naming.NewClient(client, nsRef).ListOffers(ctx, naming.NewName(rosen.ServiceName))
			if err != nil && !orb.IsUserException(err, naming.ExNotFound) {
				t.Fatal(err)
			}
			for _, o := range offers {
				if o.Ref == ref {
					t.Fatalf("worker offer %v still bound after a clean exit (lease %v)", ref, ttl)
				}
			}
		})
	}
}
