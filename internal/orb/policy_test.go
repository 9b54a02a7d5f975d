package orb

import (
	"context"
	"errors"
	"testing"
)

// TestCallerRetriesFailedRecovery: a transiently failing Recover hook (the
// naming service is partitioned mid-recovery) consumes budget rounds
// instead of aborting the call, so recovery paths that heal within the
// budget still save the call.
func TestCallerRetriesFailedRecovery(t *testing.T) {
	resolveFails := 2
	recovers := 0
	attempts := 0
	c := &Caller{
		Recover: func(ctx context.Context, dead ObjectRef) (ObjectRef, error) {
			recovers++
			if resolveFails > 0 {
				resolveFails--
				return ObjectRef{}, errors.New("naming partitioned")
			}
			return ObjectRef{TypeID: "T", Addr: "fresh:1", Key: "k"}, nil
		},
		RetryOn: func(err error) bool { return IsCommFailure(err) },
		Budget:  5,
	}

	ref, err := c.Do(context.Background(), "op", ObjectRef{TypeID: "T", Addr: "dead:1", Key: "k"}, func(_ context.Context, ref ObjectRef) error {
		attempts++
		if ref.Addr == "dead:1" {
			return CommFailure("server crashed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want success after recovery heals", err)
	}
	if recovers != 3 {
		t.Fatalf("recover attempts = %d, want 3 (two failures, one success)", recovers)
	}
	if attempts != 2 {
		t.Fatalf("call attempts = %d, want 2 (dead then fresh)", attempts)
	}
	if got := ref.Addr; got != "fresh:1" {
		t.Fatalf("finished on ref = %s, want fresh:1", got)
	}
}

// TestCallerRecoveryFailuresExhaustBudget: a recovery path that never
// heals still terminates with a RetryError carrying the recovery cause.
func TestCallerRecoveryFailuresExhaustBudget(t *testing.T) {
	recovers := 0
	c := &Caller{
		Recover: func(ctx context.Context, dead ObjectRef) (ObjectRef, error) {
			recovers++
			return ObjectRef{}, errors.New("naming still down")
		},
		RetryOn: func(err error) bool { return IsCommFailure(err) },
		Budget:  3,
	}

	_, err := c.Do(context.Background(), "op", ObjectRef{TypeID: "T", Addr: "dead:1", Key: "k"}, func(_ context.Context, ref ObjectRef) error {
		return CommFailure("gone")
	})
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts = %d, want the full budget of 3", re.Attempts)
	}
	if recovers != 3 {
		t.Fatalf("recover attempts = %d, want 3", recovers)
	}
	if want := "naming still down"; re.Last == nil || re.Last.Error() != want {
		t.Fatalf("last error = %v, want %q", re.Last, want)
	}
}
