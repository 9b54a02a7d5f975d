// Package ft implements the paper's fault-tolerance contribution:
// client-side proxy classes that checkpoint a server object's state after
// each successful method call and, on CORBA::COMM_FAILURE, obtain a fresh
// reference from the naming service (getting load-aware placement for
// free), restore the last checkpoint into the new server object, and
// replay the failed call. The same recovery wraps DII deferred requests
// via request proxies, and a checkpoint storage service holds the state
// blobs (memory-backed like the paper's prototype, or disk-backed — the
// persistence the paper lists as future work).
package ft

import (
	"context"
	"encoding/binary"
	"math/rand/v2"
	"sync"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
)

// Checkpointing operations every fault-tolerant service exposes. The
// underscore prefix mirrors CORBA's reserved pseudo-operations; the
// Wrapper adds them to any servant.
const (
	// OpCheckpoint returns the servant's serialized state.
	OpCheckpoint = "_get_checkpoint"
	// OpRestore replaces the servant's state with a serialized blob.
	OpRestore = "_restore"
)

// Checkpointable is the state contract a service implementation provides
// so its servant can be wrapped: serialize the internal state, and replace
// it from a serialized blob (the paper's "method to create a checkpoint
// for restarting the service"). Checkpoint must return a slice the caller
// may keep: the Wrapper retains the last one as the base of the next
// delta, so it must not be a buffer the servant writes to again.
type Checkpointable interface {
	Checkpoint() ([]byte, error)
	Restore(data []byte) error
}

// ExCheckpointFailed is raised when a servant cannot produce or apply a
// checkpoint.
const ExCheckpointFailed = "IDL:repro/FT/CheckpointFailed:1.0"

// Wrapper extends any servant with the checkpointing operations. Business
// operations pass through to Inner; when the request carries the
// giop.SCCheckpoint mark — a proxy sets it on the call after which a
// checkpoint is due — and Inner succeeded, the wrapper captures State and
// sends it back on the same reply: only what changed since the capture the
// mark names when that is the one it retained (one state per servant), the
// full state otherwise. A request without the mark (a plain stub's) never
// reaches State. OpCheckpoint and OpRestore go to State directly: they are
// how Proxy.Migrate reads a live server and how recovery installs a stored
// state; a restore drops the retained capture. Inner and State are
// typically the same object.
type Wrapper struct {
	Inner orb.Servant
	State Checkpointable

	// mu makes capture order and sequence order the same thing: of two
	// captures the higher-numbered holds every effect the other does. A
	// capture is named by (inc, seq), inc drawn at random once per Wrapper,
	// so a servant restarted behind the same reference names its own afresh.
	mu   sync.Mutex
	inc  uint64
	seq  uint64
	last []byte // the state captured at seq; nil after a restore
}

// Wrap builds a Wrapper for a servant that implements both orb.Servant and
// Checkpointable.
func Wrap[S interface {
	orb.Servant
	Checkpointable
}](s S) *Wrapper {
	return &Wrapper{Inner: s, State: s}
}

// TypeID implements orb.Servant.
func (w *Wrapper) TypeID() string { return w.Inner.TypeID() }

// Invoke implements orb.Servant.
func (w *Wrapper) Invoke(ctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case OpCheckpoint:
		data, err := w.State.Checkpoint()
		if err != nil {
			return &orb.UserException{RepoID: ExCheckpointFailed, Detail: err.Error()}
		}
		out.PutBytes(data)
		return nil
	case OpRestore:
		data := in.GetBytes()
		if err := in.Err(); err != nil {
			return &orb.SystemException{Kind: orb.ExMarshal, Detail: err.Error()}
		}
		w.mu.Lock()
		w.last = nil
		err := w.State.Restore(data)
		w.mu.Unlock()
		if err != nil {
			return &orb.UserException{RepoID: ExCheckpointFailed, Detail: err.Error()}
		}
		return nil
	}
	if err := w.Inner.Invoke(ctx, op, in, out); err != nil {
		return err
	}
	if ctx.Request.HasContext(giop.SCCheckpoint) {
		w.attachState(ctx, ctx.Request.Context(giop.SCCheckpoint))
	}
	return nil
}

// attachState attaches to the reply the state the operation produced: a
// delta against the retained capture when the mark names it and the delta
// is shorter, else the full state. A servant that cannot serialize itself
// still answers the call; the reply goes without the context, which the
// proxy counts as a failed checkpoint.
func (w *Wrapper) attachState(ctx *orb.ServerContext, mark []byte) {
	named := decodeMark(mark)
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := w.State.Checkpoint()
	if err != nil {
		return
	}
	for w.inc == 0 {
		w.inc = rand.Uint64()
	}
	retained := captureID{w.inc, w.seq}
	w.seq++
	var scratch [16]deltaSeg
	var segs []deltaSeg
	base, size := uint64(0), len(data)
	if named == retained && w.last != nil {
		if s, n := diffSegments(scratch[:0], w.last, data, len(data)); n < len(data) {
			segs, base, size = s, retained.seq, n
		}
	}
	e := cdr.NewEncoder(ckptHeaderLen + size)
	putReplyHeader(e, captureID{w.inc, w.seq}, base)
	if base != 0 {
		writeDelta(e, len(w.last), data, segs)
	} else {
		e.PutRaw(data)
	}
	w.last = data
	ctx.AddReplyContext(giop.SCCheckpoint, e.Bytes())
}

// The SCCheckpoint service context, both ways, little-endian like the rest
// of the wire but without CDR framing. A marked request carries the id of
// the caller's acked delta base, u64 incarnation + u64 seq, or nothing
// when it knows of none. The reply carries the capture the operation
// produced: its id, u64 base, and the body — the full state when base is
// 0, else a delta (see ComputeDelta) against capture base of the same
// incarnation.
const (
	markLen       = 16
	ckptHeaderLen = 24
)

// captureID names one capture: the capturing Wrapper's incarnation (never
// 0) and the sequence number it gave the capture.
type captureID struct{ inc, seq uint64 }

func readID(b []byte) captureID {
	return captureID{binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])}
}

// putMark writes id into dst as a request mark and returns it; the zero id
// is no mark data at all.
func (id captureID) putMark(dst []byte) []byte {
	if id.inc == 0 {
		return nil
	}
	binary.LittleEndian.PutUint64(dst, id.inc)
	binary.LittleEndian.PutUint64(dst[8:], id.seq)
	return dst[:markLen]
}

// decodeMark parses a request mark: the zero id unless it names a capture.
func decodeMark(data []byte) captureID {
	if len(data) != markLen {
		return captureID{}
	}
	return readID(data)
}

// putReplyHeader starts a reply payload for capture id in the empty e.
func putReplyHeader(e *cdr.Encoder, id captureID, base uint64) {
	e.PutUint64(id.inc)
	e.PutUint64(id.seq)
	e.PutUint64(base)
}

// decodeReply parses a reply payload; body aliases it. ok is false when it
// is absent, or its header names no capture or a base not before it.
func decodeReply(data []byte) (id captureID, base uint64, body []byte, ok bool) {
	if len(data) < ckptHeaderLen {
		return id, 0, nil, false
	}
	id, base = readID(data), binary.LittleEndian.Uint64(data[16:])
	return id, base, data[ckptHeaderLen:], id.inc != 0 && id.seq != 0 && base < id.seq
}

// FetchCheckpoint pulls the current state blob from the servant at ref
// with a round trip of its own. Proxied calls do not use it — their state
// rides the business reply; Proxy.Migrate does, to read a live source.
func FetchCheckpoint(ctx context.Context, o *orb.ORB, ref orb.ObjectRef) ([]byte, error) {
	var data []byte
	err := o.Call(ctx, ref, OpCheckpoint, nil, func(d *cdr.Decoder) error {
		data = d.GetBytes()
		return d.Err()
	})
	return data, err
}

// PushRestore installs a state blob into the servant at ref.
func PushRestore(ctx context.Context, o *orb.ORB, ref orb.ObjectRef, data []byte) error {
	return o.Call(ctx, ref, OpRestore, func(e *cdr.Encoder) { e.PutBytes(data) }, nil)
}
