package naming

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cdr"
	"repro/internal/orb"
)

func populatedRegistry(t testing.TB) *Registry {
	t.Helper()
	r := NewRegistry()
	if err := r.Bind(NewName("calc"), ref(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.BindNewContext(NewName("apps")); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(NewName("apps", "solver"), ref(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.BindNewContext(NewName("apps", "deep")); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(Name{{ID: "svc", Kind: "v2"}}, ref(3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.BindOffer(NewName("workers"), Offer{Ref: ref(10 + i), Host: "h"}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func assertRegistriesEqual(t *testing.T, a, b *Registry) {
	t.Helper()
	for _, n := range []Name{NewName("calc"), NewName("apps", "solver"), {{ID: "svc", Kind: "v2"}}} {
		ra, ea := a.ResolveObject(n)
		rb, eb := b.ResolveObject(n)
		if ea != nil || eb != nil || ra != rb {
			t.Fatalf("resolve %v: %v/%v %v/%v", n, ra, ea, rb, eb)
		}
	}
	oa, ea := a.Offers(NewName("workers"))
	ob, eb := b.Offers(NewName("workers"))
	if ea != nil || eb != nil || len(oa) != len(ob) {
		t.Fatalf("offers: %v/%v vs %v/%v", oa, ea, ob, eb)
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("offer %d: %v != %v", i, oa[i], ob[i])
		}
	}
	la, _ := a.List(NewName("apps"))
	lb, _ := b.List(NewName("apps"))
	if len(la) != len(lb) {
		t.Fatalf("list: %v vs %v", la, lb)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := populatedRegistry(t)
	snap := r.Snapshot()
	r2 := NewRegistry()
	if err := r2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, r, r2)
}

func TestSaveLoadFile(t *testing.T) {
	r := populatedRegistry(t)
	path := filepath.Join(t.TempDir(), "ns.snapshot")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if err := r2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, r, r2)
}

func TestLoadFileMissingIsFreshStart(t *testing.T) {
	r := NewRegistry()
	if err := r.LoadFile(filepath.Join(t.TempDir(), "absent")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ResolveObject(NewName("x")); !orb.IsUserException(err, ExNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRestoreSnapshotCorrupt(t *testing.T) {
	r := NewRegistry()
	cases := [][]byte{
		nil,
		{1},              // flag only, no version
		{0, 0, 0, 0, 2},  // big-endian flag
		{1, 0, 0, 0, 99}, // wrong version
	}
	for i, data := range cases {
		if err := r.RestoreSnapshot(data); err == nil {
			t.Errorf("case %d: corrupt snapshot accepted", i)
		}
	}
}

func TestRestoreSnapshotTruncated(t *testing.T) {
	r := populatedRegistry(t)
	snap := r.Snapshot()
	for _, cut := range []int{6, len(snap) / 2, len(snap) - 3} {
		r2 := NewRegistry()
		if err := r2.RestoreSnapshot(snap[:cut]); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
}

func TestRestoreSnapshotKeepsOldTreeOnFailure(t *testing.T) {
	r := populatedRegistry(t)
	if err := r.RestoreSnapshot([]byte{0, 1, 2}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	// The original tree must be intact.
	if _, err := r.ResolveObject(NewName("calc")); err != nil {
		t.Fatalf("registry lost state after failed restore: %v", err)
	}
}

func TestSaveFileAtomicOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns.snapshot")
	r1 := NewRegistry()
	if err := r1.Bind(NewName("a"), ref(1)); err != nil {
		t.Fatal(err)
	}
	if err := r1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if err := r2.Bind(NewName("b"), ref(2)); err != nil {
		t.Fatal(err)
	}
	if err := r2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r3 := NewRegistry()
	if err := r3.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.ResolveObject(NewName("b")); err != nil {
		t.Fatalf("second save lost: %v", err)
	}
	if _, err := r3.ResolveObject(NewName("a")); err == nil {
		t.Fatal("first save leaked through")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

// Property: RestoreSnapshot never panics on arbitrary bytes.
func TestQuickRestoreSnapshotNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		r := NewRegistry()
		_ = r.RestoreSnapshot(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots of randomly built flat registries round trip.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(names []string, group bool) bool {
		r := NewRegistry()
		for i, raw := range names {
			if len(names) > 12 && i >= 12 {
				break
			}
			id := "n" + raw
			n := Name{{ID: id}}
			if group {
				_ = r.BindOffer(n, Offer{Ref: ref(i), Host: raw})
			} else {
				_ = r.Bind(n, ref(i))
			}
		}
		r2 := NewRegistry()
		if err := r2.RestoreSnapshot(r.Snapshot()); err != nil {
			return false
		}
		la, _ := r.List(nil)
		lb, _ := r2.List(nil)
		return len(la) == len(lb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// snapshotV1 is a hand-built v1 snapshot: no epoch header, offers
// without lease metadata.
func snapshotV1() []byte {
	return cdr.Encapsulate(func(e *cdr.Encoder) {
		e.PutUint32(1)
		e.PutUint32(2)
		e.PutString("calc")
		e.PutString("")
		e.PutUint32(uint32(BindObject))
		ref(1).MarshalCDR(e)
		e.PutString("workers")
		e.PutString("")
		e.PutUint32(uint32(BindGroup))
		e.PutUint32(1)
		ref(2).MarshalCDR(e)
		e.PutString("h1")
	})
}

// snapshotRemoteMount is a v2 snapshot holding a binding of type 3, the
// remote-context mount older servers could write.
func snapshotRemoteMount() []byte {
	return cdr.Encapsulate(func(e *cdr.Encoder) {
		e.PutUint32(2)
		e.PutUint64(7)
		e.PutUint32(1)
		e.PutString("remote")
		e.PutString("")
		e.PutUint32(3)
		ref(1).MarshalCDR(e)
	})
}

// TestRestoreSnapshotRefusesBigEndian: a snapshot as a build with the
// big-endian wire wrote it — an empty v2 tree at epoch 7, flag 0 — is
// refused as corrupt, and the registry keeps its tree.
func TestRestoreSnapshotRefusesBigEndian(t *testing.T) {
	old := []byte{0, 0, 0, 0}                   // flag, padding
	old = binary.BigEndian.AppendUint32(old, 2) // version
	old = binary.BigEndian.AppendUint64(old, 7) // epoch
	old = binary.BigEndian.AppendUint32(old, 0) // root bindings
	r := populatedRegistry(t)
	if err := r.RestoreSnapshot(old); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("restore = %v, want ErrCorruptSnapshot", err)
	}
	if _, err := r.ResolveObject(NewName("calc")); err != nil {
		t.Fatalf("registry lost state after a refused restore: %v", err)
	}
}

// TestSnapshotRefusesRemoteMount: a snapshot holding a remote-context
// mount is refused as corrupt, not loaded with the mount silently gone,
// while a v1 snapshot still loads.
func TestSnapshotRefusesRemoteMount(t *testing.T) {
	r := NewRegistry()
	if err := r.RestoreSnapshot(snapshotV1()); err != nil {
		t.Fatalf("v1 restore: %v", err)
	}
	if got, err := r.ResolveObject(NewName("calc")); err != nil || got != ref(1) {
		t.Fatalf("v1 calc = %v, %v", got, err)
	}
	if err := r.RestoreSnapshot(snapshotRemoteMount()); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("restore = %v, want ErrCorruptSnapshot", err)
	}
	if _, err := r.AdoptSnapshot(snapshotRemoteMount()); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("adopt = %v, want ErrCorruptSnapshot", err)
	}
}

// FuzzSnapshot: decoding a snapshot never panics, and what decodes
// re-encodes to a snapshot that decodes to the same tree and epoch.
func FuzzSnapshot(f *testing.F) {
	f.Add(snapshotV1())
	f.Add(populatedRegistry(f).Snapshot())
	f.Add(snapshotRemoteMount())
	f.Fuzz(func(t *testing.T, data []byte) {
		root, epoch, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		r := NewRegistry()
		r.root, r.epoch = root, epoch
		root2, epoch2, err := decodeSnapshot(r.Snapshot())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if epoch2 != epoch || !reflect.DeepEqual(root2, root) {
			t.Fatalf("decode → Snapshot → decode changed the registry (epoch %d → %d)", epoch, epoch2)
		}
	})
}
