package ft

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
)

// ErrBadBase is returned by Put when a delta checkpoint's Base does not
// match the epoch the store currently holds — the store cannot apply the
// delta. Producers react by re-sending the checkpoint as a full snapshot.
var ErrBadBase = errors.New("ft: delta base mismatch")

// Checkpoint is the versioned checkpoint value carried through Store: the
// epoch that orders it, an optional delta base, and the payload itself.
// It replaces the historical raw (epoch, data) pair so incremental
// checkpoints travel through every store implementation — local, remote,
// replicated — without the backends agreeing on anything beyond this one
// type.
//
// A Checkpoint with Base == 0 is a full snapshot. With Base > 0 the
// payload is a delta (see ComputeDelta) against the full state stored at
// epoch Base; store backends materialize deltas at Put time and always
// return full snapshots from Get, so restore never needs delta replay.
type Checkpoint struct {
	// Epoch orders checkpoints of one key; Puts must be strictly newer
	// than the stored epoch.
	Epoch uint64
	// Base is the epoch the delta payload applies to. 0 marks a full
	// snapshot (epoch 0 is never a valid checkpoint epoch).
	Base uint64
	// Data is the (possibly delta-encoded) payload.
	Data []byte
}

// Full builds a full-snapshot checkpoint at epoch.
func Full(epoch uint64, data []byte) Checkpoint {
	return Checkpoint{Epoch: epoch, Data: data}
}

// IsDelta reports whether the payload is delta-encoded.
func (c Checkpoint) IsDelta() bool { return c.Base != 0 }

// MarshalCDR writes the checkpoint in its wire format.
func (c Checkpoint) MarshalCDR(e *cdr.Encoder) {
	e.PutUint64(c.Epoch)
	e.PutUint64(c.Base)
	e.PutBytes(c.Data)
}

// UnmarshalCDR reads the wire format back.
func (c *Checkpoint) UnmarshalCDR(d *cdr.Decoder) error {
	c.Epoch = d.GetUint64()
	c.Base = d.GetUint64()
	c.Data = d.GetBytes()
	return d.Err()
}

// materialize resolves cp into full raw state bytes, given the full state
// the store currently holds for the key (prev at prevEpoch; havePrev
// false when nothing is stored). Delta checkpoints whose Base does not
// match the stored epoch fail with ErrBadBase. A full checkpoint comes
// back as its own Data. A delta comes back in a new slice, unless inPlace
// is set — the caller owns prev and nothing else can see it — and the
// delta keeps the length: then prev is patched and returned.
func materialize(cp Checkpoint, prevEpoch uint64, prev []byte, havePrev, inPlace bool) ([]byte, error) {
	if !cp.IsDelta() {
		return cp.Data, nil
	}
	if !havePrev {
		return nil, fmt.Errorf("%w: delta base %d but nothing stored", ErrBadBase, cp.Base)
	}
	if cp.Base != prevEpoch {
		return nil, fmt.Errorf("%w: delta base %d, stored epoch %d", ErrBadBase, cp.Base, prevEpoch)
	}
	full, err := applyDelta(prev, cp.Data, inPlace)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return full, nil
}
