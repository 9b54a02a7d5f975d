package ft

import (
	"context"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/giop"
	"repro/internal/orb"
)

// TestSuccessfulCallSurvivesLosingTheServer is the lost-update window: the
// client→server route dies right after the k-th business reply was
// delivered. The client was told call k succeeded, so the recovery the next
// call triggers must restore a state that contains it. With the state
// riding the reply it does; when the state was fetched by a second request
// that request is the one refused, the store stays at k-1 and the replayed
// call returns k.
func TestSuccessfulCallSurvivesLosingTheServer(t *testing.T) {
	const k = 3
	chaos := faultnet.New(1)
	var w *ftWorld
	replies := 0 // one caller, and the hook runs on its goroutine
	hook := &clientHook{reply: func(req, reply *giop.Message, _ error) {
		if req.Operation != "inc" || reply == nil {
			return
		}
		if replies++; replies == k {
			chaos.SetRule(faultnet.Rule{Route: w.refA.Addr, RefuseDial: 1, ResetProb: 1})
		}
	}}
	w = newFTWorldWith(t, ftWorldOpts{client: orb.Options{
		Dialer: chaos, CallInterceptors: []orb.CallInterceptor{hook},
	}})
	p := w.newProxy(Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	for i := int64(1); i <= k; i++ {
		if v, err := inc(p, 1); err != nil || v != i {
			t.Fatalf("inc %d = %d, %v", i, v, err)
		}
	}
	v, err := inc(p, 1)
	if err != nil {
		t.Fatalf("inc after the route died: %v", err)
	}
	if v != k+1 {
		t.Fatalf("inc after recovery = %d, want %d: call %d was reported successful and then lost", v, k+1, k)
	}
	if got := w.ctrB.value; got != k+1 {
		t.Fatalf("survivor state = %d, want %d", got, k+1)
	}
	st := p.Stats()
	if st.CheckpointFailures != 0 || st.Checkpoints != k+1 || st.Recoveries != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v, want %d checkpoints, no failure, one recovery and replay", st, k+1)
	}
	if c := chaos.Counters(); c.Resets == 0 {
		t.Fatal("the route was never cut: the failure path did not run")
	}
}

// TestLostReplyIsReplayedExactlyOnce: the servant executes call k, then the
// reply — and the state riding on it — is lost with the connection. The
// store still holds epoch k-1, recovery restores that into the survivor and
// the replay applies call k there once: the client sees k, not k+1.
func TestLostReplyIsReplayedExactlyOnce(t *testing.T) {
	const k = 3
	chaos := faultnet.New(1)
	var w *ftWorld
	w = newFTWorldWith(t, ftWorldOpts{
		srvA: orb.Options{Listen: chaos.Listen},
		wrapA: func(c *counterServant) orb.Servant {
			cut := func(value int64) {
				if value == k {
					chaos.SetRule(faultnet.Rule{Route: w.adA.Addr(), ResetProb: 1})
				}
			}
			return &Wrapper{Inner: &afterServant{c, cut}, State: c}
		},
	})
	p := w.newProxy(Policy{CheckpointEvery: 1}, WithInitialRef(w.refA))
	for i := int64(1); i <= k; i++ {
		if v, err := inc(p, 1); err != nil || v != i {
			t.Fatalf("inc %d = %d, %v", i, v, err)
		}
	}
	if c := chaos.Counters(); c.Resets == 0 {
		t.Fatal("the reply was never cut: the failure path did not run")
	}
	if got := w.ctrA.value; got != k {
		t.Fatalf("dead server state = %d, want %d: it executed call %d before its reply was lost", got, k, k)
	}
	if got := w.ctrB.value; got != k {
		t.Fatalf("survivor state = %d, want %d: the replay must apply call %d exactly once", got, k, k)
	}
	st := p.Stats()
	if st.Calls != k || st.Checkpoints != k || st.CheckpointFailures != 0 || st.Recoveries != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v", st)
	}
	epoch, data, err := getFull(context.Background(), w.store, w.name.String())
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeCounterState(t, data); epoch != k || v != k {
		t.Fatalf("store holds epoch %d value %d, want %d and %d", epoch, v, k, k)
	}
}
