package ft

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/cdr"
)

// ErrNoCheckpoint is returned by Get for keys with no stored checkpoint.
var ErrNoCheckpoint = errors.New("ft: no checkpoint stored")

// ErrStaleEpoch is returned by Put when a newer checkpoint already exists.
var ErrStaleEpoch = errors.New("ft: stale checkpoint epoch")

// ErrCorruptCheckpoint is returned by Get when a stored checkpoint exists
// but cannot be decoded (torn write, media fault, truncation). It is
// distinct from ErrNoCheckpoint so recovery can tell "nothing was ever
// stored" from "something was stored and is now damaged" — the latter
// must never surface as a zero-epoch success.
var ErrCorruptCheckpoint = errors.New("ft: corrupt checkpoint")

// Store persists the latest checkpoint per key. Epochs order checkpoints
// of one key; a Put whose epoch is not newer than the stored one fails
// with ErrStaleEpoch, so late writes from a superseded proxy cannot roll
// state back. Puts may carry delta-encoded payloads (Checkpoint.Base):
// backends materialize them against the stored full state at Put time —
// rejecting mismatched bases with ErrBadBase — and Get always returns a
// materialized full snapshot, so restore paths never replay deltas.
// Every operation is bounded by ctx: remote implementations
// (StoreClient, ReplicatedStore) honour its deadline/cancellation, so a
// dead or partitioned store daemon cannot stall a recovery path past its
// deadline; local implementations only check it on entry.
// Implementations must be safe for concurrent use.
type Store interface {
	// Put stores cp as the checkpoint for key. It must not keep cp.Data
	// past its return: once the put is acked the proxy makes a full
	// checkpoint's buffer its delta base and patches it in place.
	Put(ctx context.Context, key string, cp Checkpoint) error
	// Get returns the newest checkpoint for key, materialized to a full
	// snapshot (Base 0).
	Get(ctx context.Context, key string) (Checkpoint, error)
	// Delete removes key's checkpoint (idempotent).
	Delete(ctx context.Context, key string) error
	// Keys lists all keys with checkpoints, sorted.
	Keys(ctx context.Context) ([]string, error)
}

// MemStore is the in-memory store — the paper's prototype ("no real
// persistency like storing checkpoints on disk media has been
// implemented, yet").
type MemStore struct {
	mu   sync.RWMutex
	data map[string]memEntry
}

type memEntry struct {
	epoch uint64
	data  []byte // always materialized full state
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string]memEntry)}
}

// Put implements Store. The stored buffer is the store's alone — Get hands
// out copies — so a delta that keeps the length patches it in place, a
// full checkpoint is copied into it when it fits, and only a delta that
// changes the length leaves a new buffer, the one it was materialized in.
func (s *MemStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.data[key]
	if ok && cp.Epoch <= cur.epoch {
		return fmt.Errorf("%w: key %q epoch %d <= stored %d", ErrStaleEpoch, key, cp.Epoch, cur.epoch)
	}
	full, err := materialize(cp, cur.epoch, cur.data, ok, true)
	if err != nil {
		return fmt.Errorf("%w (key %q)", err, key)
	}
	if !cp.IsDelta() {
		full = append(cur.data[:0], full...) // the caller's bytes
	}
	s.data[key] = memEntry{epoch: cp.Epoch, data: full}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, key string) (Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return Checkpoint{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok {
		return Checkpoint{}, fmt.Errorf("%w: key %q", ErrNoCheckpoint, key)
	}
	cp := make([]byte, len(e.data))
	copy(cp, e.data)
	return Full(e.epoch, cp), nil
}

// Delete implements Store.
func (s *MemStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.data, key)
	s.mu.Unlock()
	return nil
}

// Keys implements Store.
func (s *MemStore) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// DiskStore persists checkpoints as one file per key under a directory —
// the real persistence the paper defers to future work. Writes are
// write-to-temp + fsync + rename + directory fsync, so neither a crash
// mid-write nor a host power loss right after the acknowledgement can
// lose or corrupt an acked checkpoint. Delta Puts are materialized before
// the durable write: each file always holds a full snapshot, so restore
// after a crash never depends on a chain of delta files.
type DiskStore struct {
	dir string
	mu  sync.Mutex
}

// NewDiskStore opens (creating if needed) a disk-backed store in dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ft: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path hex-encodes the key so arbitrary service names map to safe file
// names.
func (s *DiskStore) path(key string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(key))+".ckpt")
}

// A checkpoint file is an encapsulation of the epoch and the blob, so its
// flag octet refuses a file left by a build whose byte order differed.
func encodeCheckpointFile(epoch uint64, data []byte) []byte {
	return cdr.Encapsulate(func(e *cdr.Encoder) {
		e.PutUint64(epoch)
		e.PutBytes(data)
	})
}

func decodeCheckpointFile(raw []byte) (uint64, []byte, error) {
	d, err := cdr.OpenEncapsulation(raw)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	epoch := d.GetUint64()
	data := d.GetBytes()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return epoch, data, nil
}

// writeDurable writes content to path via a temp file, fsyncing both the
// file and its directory, so the rename — and therefore the checkpoint —
// survives a host crash.
func writeDurable(path string, content []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Durability of the rename itself requires the directory entry to be
	// on stable storage.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Put implements Store.
func (s *DiskStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(key)
	var curEpoch uint64
	var curData []byte
	haveCur := false
	if raw, err := os.ReadFile(p); err == nil {
		if e, d, derr := decodeCheckpointFile(raw); derr == nil {
			curEpoch, curData, haveCur = e, d, true
		}
	}
	if haveCur && cp.Epoch <= curEpoch {
		return fmt.Errorf("%w: key %q epoch %d <= stored %d", ErrStaleEpoch, key, cp.Epoch, curEpoch)
	}
	full, err := materialize(cp, curEpoch, curData, haveCur, false)
	if err != nil {
		return fmt.Errorf("%w (key %q)", err, key)
	}
	if err := writeDurable(p, encodeCheckpointFile(cp.Epoch, full)); err != nil {
		return fmt.Errorf("ft: commit checkpoint: %w", err)
	}
	return nil
}

// Get implements Store.
func (s *DiskStore) Get(ctx context.Context, key string) (Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return Checkpoint{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Checkpoint{}, fmt.Errorf("%w: key %q", ErrNoCheckpoint, key)
		}
		return Checkpoint{}, fmt.Errorf("ft: read checkpoint: %w", err)
	}
	epoch, data, err := decodeCheckpointFile(raw)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("%w (key %q)", err, key)
	}
	return Full(epoch, data), nil
}

// Delete implements Store.
func (s *DiskStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ft: delete checkpoint: %w", err)
	}
	return nil
}

// Keys implements Store.
func (s *DiskStore) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ft: list checkpoints: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".ckpt" {
			continue
		}
		raw, err := hex.DecodeString(name[:len(name)-len(".ckpt")])
		if err != nil {
			continue
		}
		out = append(out, string(raw))
	}
	sort.Strings(out)
	return out, nil
}
