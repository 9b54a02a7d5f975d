package ft

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// storeImpls enumerates the Store implementations under test.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMemStore(),
		"disk": disk,
	}
}

func TestStorePutGet(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := putFull(context.Background(), s, "svc", 1, []byte("state-1")); err != nil {
				t.Fatal(err)
			}
			epoch, data, err := getFull(context.Background(), s, "svc")
			if err != nil {
				t.Fatal(err)
			}
			if epoch != 1 || string(data) != "state-1" {
				t.Fatalf("got %d %q", epoch, data)
			}
		})
	}
}

func TestStoreNewerEpochReplaces(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := putFull(context.Background(), s, "svc", 1, []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := putFull(context.Background(), s, "svc", 2, []byte("new")); err != nil {
				t.Fatal(err)
			}
			epoch, data, _ := getFull(context.Background(), s, "svc")
			if epoch != 2 || string(data) != "new" {
				t.Fatalf("got %d %q", epoch, data)
			}
		})
	}
}

func TestStoreStaleEpochRejected(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := putFull(context.Background(), s, "svc", 5, []byte("v5")); err != nil {
				t.Fatal(err)
			}
			err := putFull(context.Background(), s, "svc", 5, []byte("v5-again"))
			if !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("err = %v", err)
			}
			err = putFull(context.Background(), s, "svc", 4, []byte("v4"))
			if !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("err = %v", err)
			}
			_, data, _ := getFull(context.Background(), s, "svc")
			if string(data) != "v5" {
				t.Fatalf("state rolled back to %q", data)
			}
		})
	}
}

func TestStoreGetMissing(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := getFull(context.Background(), s, "ghost"); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

func TestStoreDelete(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := putFull(context.Background(), s, "svc", 1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(context.Background(), "svc"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := getFull(context.Background(), s, "svc"); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("err = %v", err)
			}
			if err := s.Delete(context.Background(), "svc"); err != nil {
				t.Fatalf("delete not idempotent: %v", err)
			}
		})
	}
}

func TestStoreKeys(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"b", "a", "c/with.weird\\chars"} {
				if err := putFull(context.Background(), s, k, 1, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := s.Keys(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a", "b", "c/with.weird\\chars"}
			if len(keys) != len(want) {
				t.Fatalf("keys = %v", keys)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("keys = %v", keys)
				}
			}
		})
	}
}

func TestStoreEmptyKeys(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			keys, err := s.Keys(context.Background())
			if err != nil || len(keys) != 0 {
				t.Fatalf("keys = %v, %v", keys, err)
			}
		})
	}
}

func TestMemStoreReturnsCopies(t *testing.T) {
	s := NewMemStore()
	orig := []byte("abc")
	if err := putFull(context.Background(), s, "k", 1, orig); err != nil {
		t.Fatal(err)
	}
	orig[0] = 'X' // caller mutates its buffer afterwards
	_, data, _ := getFull(context.Background(), s, "k")
	if string(data) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", data)
	}
	data[0] = 'Y' // reader mutates the returned buffer
	_, data2, _ := getFull(context.Background(), s, "k")
	if string(data2) != "abc" {
		t.Fatalf("store aliased reader buffer: %q", data2)
	}
}

func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putFull(context.Background(), s1, "svc", 7, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch, data, err := getFull(context.Background(), s2, "svc")
	if err != nil || epoch != 7 || string(data) != "persisted" {
		t.Fatalf("got %d %q %v", epoch, data, err)
	}
}

func TestDiskStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putFull(context.Background(), s, "svc", 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Truncate the file to corrupt it.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte{1, 2}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = getFull(context.Background(), s, "svc")
	if err == nil {
		t.Fatal("corrupt checkpoint read succeeded")
	}
	// Corruption must be distinguishable — typed, not ErrNoCheckpoint and
	// never a zero-epoch success.
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	if errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("corrupt checkpoint reported as missing: %v", err)
	}
}

// TestDiskStoreRefusesBigEndianFile: a checkpoint file as a build with the
// big-endian wire left it — epoch and blob length high byte first, with no
// byte-order flag — reads as corrupt, never as a checkpoint with a
// byte-swapped epoch. An empty blob, whose zero length reads the same in
// either order, is no exception.
func TestDiskStoreRefusesBigEndianFile(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{[]byte("state"), nil} {
		old := binary.BigEndian.AppendUint64(nil, 42)
		old = binary.BigEndian.AppendUint32(old, uint32(len(blob)))
		old = append(old, blob...)
		if err := os.WriteFile(s.path("svc"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if epoch, _, err := getFull(context.Background(), s, "svc"); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%d-byte blob: Get = epoch %d, %v; want ErrCorruptCheckpoint", len(blob), epoch, err)
		}
	}
}

// TestDiskStorePutIsAtomicAndTidy: Put commits via temp file + rename, so
// a directory snapshot after any number of Puts holds exactly the
// committed checkpoint files — no .tmp residue that a crash-recovery scan
// could mistake for state.
func TestDiskStorePutIsAtomicAndTidy(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := putFull(context.Background(), s, "svc", uint64(i), []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want exactly one committed checkpoint", names)
	}
	if filepath.Ext(entries[0].Name()) != ".ckpt" {
		t.Fatalf("committed file %q is not a .ckpt", entries[0].Name())
	}
}

// TestDiskStoreSurvivesTornTempWrite: a crash mid-write leaves a partial
// temp file; the previously acked checkpoint must still be served intact
// by a reopened store.
func TestDiskStoreSurvivesTornTempWrite(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putFull(context.Background(), s1, "svc", 3, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that died before its rename: garbage temp file
	// next to the committed checkpoint.
	entries, _ := os.ReadDir(dir)
	torn := filepath.Join(dir, entries[0].Name()+".tmp")
	if err := os.WriteFile(torn, []byte{0xde, 0xad}, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch, data, err := getFull(context.Background(), s2, "svc")
	if err != nil || epoch != 3 || string(data) != "acked" {
		t.Fatalf("got %d %q %v, want the acked checkpoint", epoch, data, err)
	}
	keys, err := s2.Keys(context.Background())
	if err != nil || len(keys) != 1 || keys[0] != "svc" {
		t.Fatalf("keys = %v, %v; torn temp file leaked into the key space", keys, err)
	}
	// The next Put replaces the torn temp and commits cleanly.
	if err := putFull(context.Background(), s2, "svc", 4, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("temp file still present after commit: %v", err)
	}
}

// TestStoreHonoursCancelledContext: every operation refuses an already
// cancelled ctx instead of doing work.
func TestStoreHonoursCancelledContext(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := putFull(ctx, s, "k", 1, []byte("x")); !errors.Is(err, context.Canceled) {
				t.Fatalf("Put err = %v", err)
			}
			if _, _, err := getFull(ctx, s, "k"); !errors.Is(err, context.Canceled) {
				t.Fatalf("Get err = %v", err)
			}
			if err := s.Delete(ctx, "k"); !errors.Is(err, context.Canceled) {
				t.Fatalf("Delete err = %v", err)
			}
			if _, err := s.Keys(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Keys err = %v", err)
			}
		})
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz-not-hex.ckpt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := putFull(context.Background(), s, "real", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys(context.Background())
	if err != nil || len(keys) != 1 || keys[0] != "real" {
		t.Fatalf("keys = %v, %v", keys, err)
	}
}

// Property: for any sequence of monotone puts, Get returns the last one —
// on both implementations.
func TestQuickStoreLastWriteWins(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) Store{
		"mem": func(*testing.T) Store { return NewMemStore() },
		"disk": func(t *testing.T) Store {
			s, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := func(blobs [][]byte) bool {
				if len(blobs) > 12 {
					blobs = blobs[:12]
				}
				s := mk(t)
				for i, b := range blobs {
					if err := putFull(context.Background(), s, "k", uint64(i+1), b); err != nil {
						return false
					}
				}
				if len(blobs) == 0 {
					_, _, err := getFull(context.Background(), s, "k")
					return errors.Is(err, ErrNoCheckpoint)
				}
				epoch, data, err := getFull(context.Background(), s, "k")
				if err != nil || epoch != uint64(len(blobs)) {
					return false
				}
				last := blobs[len(blobs)-1]
				if len(data) != len(last) {
					return false
				}
				for i := range last {
					if data[i] != last[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
