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
// for restarting the service").
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
// sends it back on the same reply, stamped with a capture sequence number,
// so a checkpointed call costs the caller no fetch of its own. A request
// without the mark (a plain stub's) never reaches State. OpCheckpoint and
// OpRestore go to State directly: they are how Proxy.Migrate reads a live
// server and how recovery installs a stored state. Inner and State are
// typically the same object.
type Wrapper struct {
	Inner orb.Servant
	State Checkpointable

	// mu makes capture order and sequence order the same thing: the
	// sequence number is taken under the lock that spans Checkpoint(), so
	// of two snapshots the one with the higher number holds every effect
	// the other does.
	mu  sync.Mutex
	seq uint64
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
		if err := w.State.Restore(data); err != nil {
			return &orb.UserException{RepoID: ExCheckpointFailed, Detail: err.Error()}
		}
		return nil
	}
	if err := w.Inner.Invoke(ctx, op, in, out); err != nil {
		return err
	}
	if ctx.Request.HasContext(giop.SCCheckpoint) {
		w.attachState(ctx)
	}
	return nil
}

// attachState captures the state the operation just produced and attaches
// it to the reply. A servant that cannot serialize itself still answers
// the business call: the reply simply goes without the context, which the
// proxy counts as a failed checkpoint.
func (w *Wrapper) attachState(ctx *orb.ServerContext) {
	w.mu.Lock()
	data, err := w.State.Checkpoint()
	if err == nil {
		w.seq++
	}
	seq := w.seq
	w.mu.Unlock()
	if err == nil {
		ctx.AddReplyContext(giop.SCCheckpoint, giop.EncodeCheckpoint(seq, data))
	}
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
