package naming

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/cdr"
)

// Registry persistence: the whole naming tree serializes to a CDR
// encapsulation, so a standalone nameserver can survive restarts without
// losing bindings (production naming services persist their trees; the
// format is versioned for forward evolution).
//
// Version history:
//
//	v1 — tree of bindings; group offers carry (ref, host).
//	v2 — adds the registry epoch to the header and lease metadata
//	     (TTL + absolute expiry) to every offer. v1 snapshots are still
//	     readable: their offers load lease-free and the epoch starts at 0.
const persistVersion = 2

// ErrCorruptSnapshot tags every structural decode failure of a snapshot
// (truncation, impossible counts, unknown binding types). Callers test
// with errors.Is; a corrupt store file must never panic the nameserver.
var ErrCorruptSnapshot = errors.New("naming: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// Snapshot serializes the registry (current format version).
func (r *Registry) Snapshot() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return cdr.Encapsulate(func(e *cdr.Encoder) {
		e.PutUint32(persistVersion)
		e.PutUint64(r.epoch)
		snapshotContext(e, r.root)
	})
}

func snapshotContext(e *cdr.Encoder, node *contextNode) {
	e.PutUint32(uint32(len(node.entries)))
	for k, ent := range node.entries {
		id, kind, _ := splitKey(k)
		e.PutString(id)
		e.PutString(kind)
		e.PutUint32(uint32(ent.typ))
		switch ent.typ {
		case BindObject:
			ent.ref.MarshalCDR(e)
		case BindContext:
			snapshotContext(e, ent.ctx)
		case BindGroup:
			e.PutUint32(uint32(len(ent.group)))
			for _, o := range ent.group {
				o.Ref.MarshalCDR(e)
				e.PutString(o.Host)
				e.PutInt64(int64(o.LeaseTTL))
				if o.Expires.IsZero() {
					e.PutInt64(0)
				} else {
					e.PutInt64(o.Expires.UnixNano())
				}
			}
		}
	}
}

// decodeSnapshot parses a snapshot of any supported version.
func decodeSnapshot(data []byte) (root *contextNode, epoch uint64, err error) {
	d, err := cdr.OpenEncapsulation(data)
	if err != nil {
		return nil, 0, corruptf("%v", err)
	}
	v := d.GetUint32()
	if err := d.Err(); err != nil {
		return nil, 0, corruptf("%v", err)
	}
	switch v {
	case 1:
		// v1 has no epoch header and no lease metadata.
	case 2:
		epoch = d.GetUint64()
	default:
		return nil, 0, fmt.Errorf("naming: snapshot version %d unsupported", v)
	}
	root, err = restoreContext(d, 0, v)
	if err != nil {
		return nil, 0, err
	}
	return root, epoch, nil
}

// RestoreSnapshot replaces the registry contents with a snapshot,
// including its epoch (v1 snapshots restore at epoch 0).
func (r *Registry) RestoreSnapshot(data []byte) error {
	root, epoch, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.root = root
	r.epoch = epoch
	r.notifyLocked(nil) // the whole tree changed
	r.mu.Unlock()
	return nil
}

// AdoptSnapshot merges a peer's snapshot using last-writer-wins: the
// whole tree is replaced only when the snapshot's epoch is strictly newer
// than the local one. It returns whether the snapshot was adopted. This
// is the receiving half of nameserver replication — commutative and
// idempotent, so replicas converge regardless of push ordering.
func (r *Registry) AdoptSnapshot(data []byte) (bool, error) {
	root, epoch, err := decodeSnapshot(data)
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return false, nil
	}
	r.root = root
	r.epoch = epoch
	r.adopts++
	r.notifyLocked(nil) // the whole tree changed
	return true, nil
}

// maxPersistDepth bounds context nesting in snapshots (corruption guard).
const maxPersistDepth = 64

func restoreContext(d *cdr.Decoder, depth int, version uint32) (*contextNode, error) {
	if depth > maxPersistDepth {
		return nil, corruptf("nests deeper than %d contexts", maxPersistDepth)
	}
	n := d.GetUint32()
	if n > 1<<20 {
		return nil, corruptf("context with %d entries", n)
	}
	node := newContextNode()
	for i := uint32(0); i < n; i++ {
		id := d.GetString()
		kind := d.GetString()
		typ := BindingType(d.GetUint32())
		if err := d.Err(); err != nil {
			return nil, corruptf("%v", err)
		}
		ent := &entry{typ: typ}
		switch typ {
		case BindObject:
			if err := ent.ref.UnmarshalCDR(d); err != nil {
				return nil, corruptf("%v", err)
			}
		case BindContext:
			sub, err := restoreContext(d, depth+1, version)
			if err != nil {
				return nil, err
			}
			ent.ctx = sub
		case BindGroup:
			cnt := d.GetUint32()
			if cnt > 1<<20 {
				return nil, corruptf("group with %d offers", cnt)
			}
			for j := uint32(0); j < cnt; j++ {
				var o Offer
				if err := o.Ref.UnmarshalCDR(d); err != nil {
					return nil, corruptf("%v", err)
				}
				o.Host = d.GetString()
				if version >= 2 {
					o.LeaseTTL = time.Duration(d.GetInt64())
					if nanos := d.GetInt64(); nanos != 0 {
						o.Expires = time.Unix(0, nanos)
					}
				}
				ent.group = append(ent.group, o)
			}
			if err := d.Err(); err != nil {
				return nil, corruptf("%v", err)
			}
		default:
			return nil, corruptf("unknown binding type %d", typ)
		}
		node.entries[key(Component{ID: id, Kind: kind})] = ent
	}
	if err := d.Err(); err != nil {
		return nil, corruptf("%v", err)
	}
	return node, nil
}

// SaveFile writes the snapshot atomically (write temp + rename).
func (r *Registry) SaveFile(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, r.Snapshot(), 0o644); err != nil {
		return fmt.Errorf("naming: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("naming: save: %w", err)
	}
	return nil
}

// LoadFile restores the registry from a snapshot file. A missing file is
// not an error (fresh start).
func (r *Registry) LoadFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("naming: load: %w", err)
	}
	return r.RestoreSnapshot(raw)
}
