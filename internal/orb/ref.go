package orb

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/cdr"
)

// ObjectRef is an interoperable object reference (IOR analogue). It names a
// servant by transport address plus object key and records the interface's
// repository id. The zero value is the nil object reference.
type ObjectRef struct {
	// TypeID is the repository id of the most derived interface,
	// e.g. "IDL:repro/NamingContext:1.0".
	TypeID string
	// Addr is the TCP endpoint ("host:port") of the object adapter.
	Addr string
	// Key identifies the servant within its adapter.
	Key string
}

// IsNil reports whether r is the nil object reference.
func (r ObjectRef) IsNil() bool { return r.Addr == "" && r.Key == "" }

func (r ObjectRef) String() string {
	if r.IsNil() {
		return "ObjectRef(nil)"
	}
	return fmt.Sprintf("ObjectRef(%s @%s key=%q)", r.TypeID, r.Addr, r.Key)
}

// MarshalCDR encodes the reference (used when references travel inside
// request/reply bodies, e.g. naming-service resolve results).
func (r ObjectRef) MarshalCDR(e *cdr.Encoder) {
	e.PutString(r.TypeID)
	e.PutString(r.Addr)
	e.PutString(r.Key)
}

// UnmarshalCDR decodes a reference.
func (r *ObjectRef) UnmarshalCDR(d *cdr.Decoder) error {
	r.TypeID = d.GetString()
	r.Addr = d.GetString()
	r.Key = d.GetString()
	return d.Err()
}

// siorPrefix marks stringified references (analogue of "IOR:").
const siorPrefix = "SIOR:"

// ErrBadRef is reported when a stringified reference cannot be parsed.
var ErrBadRef = errors.New("orb: malformed stringified object reference")

// ToString renders the reference in the stringified-IOR style: the prefix
// "SIOR:" followed by the hex encoding of a CDR encapsulation. The format
// survives copy/paste through configuration files and command lines.
func (r ObjectRef) ToString() string {
	blob := cdr.Encapsulate(func(e *cdr.Encoder) { r.MarshalCDR(e) })
	return siorPrefix + hex.EncodeToString(blob)
}

// RefFromString parses a reference produced by ToString.
func RefFromString(s string) (ObjectRef, error) {
	var r ObjectRef
	if !strings.HasPrefix(s, siorPrefix) {
		return r, fmt.Errorf("%w: missing %q prefix", ErrBadRef, siorPrefix)
	}
	blob, err := hex.DecodeString(s[len(siorPrefix):])
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRef, err)
	}
	d, err := cdr.OpenEncapsulation(blob)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRef, err)
	}
	if err := r.UnmarshalCDR(d); err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRef, err)
	}
	return r, nil
}

// RefFromSpec parses a reference as the daemons take it: a SIOR, or
// @path naming a file whose first line is one (the format -ref-file
// writes). Errors name the spec.
func RefFromSpec(spec string) (ObjectRef, error) {
	s := spec
	if strings.HasPrefix(spec, "@") {
		raw, err := os.ReadFile(spec[1:])
		if err != nil {
			return ObjectRef{}, fmt.Errorf("reference %q: %w", spec, err)
		}
		s, _, _ = strings.Cut(string(raw), "\n")
	}
	r, err := RefFromString(strings.TrimSpace(s))
	if err != nil {
		return r, fmt.Errorf("reference %q: %w", spec, err)
	}
	return r, nil
}
