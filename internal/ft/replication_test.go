package ft

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
)

func groupInc(g *ReplicaGroup, by int64) (int64, error) {
	var v int64
	err := g.Call(context.Background(), "inc",
		func(e *cdr.Encoder) { e.PutInt64(by) },
		func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() })
	return v, err
}

func TestReplicaGroupKeepsReplicasInLockstep(t *testing.T) {
	w := newFTWorld(t)
	g, err := NewReplicaGroup(context.Background(), w.client, w.name, w.naming)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("size = %d", g.Size())
	}
	for i := int64(1); i <= 3; i++ {
		v, err := groupInc(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("value = %d, want %d", v, i)
		}
	}
	// Both replicas executed every call: identical state, no restore.
	if w.ctrA.value != 3 || w.ctrB.value != 3 {
		t.Fatalf("replica states: A=%d B=%d", w.ctrA.value, w.ctrB.value)
	}
	st := g.Stats()
	if st.Calls != 3 || st.Fanout != 6 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicaGroupSurvivesReplicaCrashWithoutRestore(t *testing.T) {
	w := newFTWorld(t)
	g, err := NewReplicaGroup(context.Background(), w.client, w.name, w.naming)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := groupInc(g, 10); err != nil {
		t.Fatal(err)
	}
	// Kill replica A: the next call still succeeds via B, and A is
	// dropped. No checkpoint/restore happened anywhere.
	w.adA.Close()
	w.srvA.Shutdown()
	v, err := groupInc(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 15 {
		t.Fatalf("value = %d", v)
	}
	if g.Size() != 1 {
		t.Fatalf("size after crash = %d", g.Size())
	}
	st := g.Stats()
	if st.Dropped != 1 || st.Failures == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicaGroupAllReplicasDead(t *testing.T) {
	w := newFTWorld(t)
	g, err := NewReplicaGroup(context.Background(), w.client, w.name, w.naming)
	if err != nil {
		t.Fatal(err)
	}
	w.adA.Close()
	w.srvA.Shutdown()
	w.adB.Close()
	w.srvB.Shutdown()
	_, err = groupInc(g, 1)
	if err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("err = %v", err)
	}
	if g.Size() != 0 {
		t.Fatalf("size = %d", g.Size())
	}
}

func TestReplicaGroupUserExceptionSurfaces(t *testing.T) {
	w := newFTWorld(t)
	g, err := NewReplicaGroup(context.Background(), w.client, w.name, w.naming)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Call(context.Background(), "fail_user", nil, nil)
	if !orb.IsUserException(err, "IDL:repro/Boom:1.0") {
		t.Fatalf("err = %v", err)
	}
	// Application exceptions must not shrink the group.
	if g.Size() != 2 {
		t.Fatalf("size = %d", g.Size())
	}
}

func TestReplicaGroupDeferredRequest(t *testing.T) {
	w := newFTWorld(t)
	g, err := NewReplicaGroup(context.Background(), w.client, w.name, w.naming)
	if err != nil {
		t.Fatal(err)
	}
	req := g.NewRequest(context.Background(), "inc")
	req.Args().PutInt64(7)
	if err := req.GetResponse(nil); !orb.IsSystemException(err, orb.ExBadOperation) {
		t.Fatalf("GetResponse before Send: %v", err)
	}
	req.Send()
	req.Send() // idempotent
	var v int64
	if err := req.GetResponse(func(d *cdr.Decoder) error { v = d.GetInt64(); return d.Err() }); err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("v = %d", v)
	}
}

func TestReplicaGroupFromRefs(t *testing.T) {
	w := newFTWorld(t)
	offers, err := w.naming.ListOffers(context.Background(), w.name)
	if err != nil {
		t.Fatal(err)
	}
	refs := []orb.ObjectRef{offers[0].Ref}
	g, err := NewReplicaGroupFromRefs(w.client, w.name, refs)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := groupInc(g, 2); err != nil || v != 2 {
		t.Fatalf("inc = %d, %v", v, err)
	}
	if _, err := NewReplicaGroupFromRefs(w.client, w.name, nil); err == nil {
		t.Fatal("empty ref list accepted")
	}
}

func TestReplicaGroupNoOffers(t *testing.T) {
	w := newFTWorld(t)
	if _, err := NewReplicaGroup(context.Background(), w.client, naming.NewName("ghost"), w.naming); err == nil {
		t.Fatal("missing name accepted")
	}
}
