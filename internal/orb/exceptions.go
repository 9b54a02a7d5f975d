package orb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
)

// ExceptionKind enumerates the CORBA system exception kinds used by this
// runtime. COMM_FAILURE is central: the paper's fault-tolerance layer keys
// entirely off clients observing CORBA::COMM_FAILURE.
type ExceptionKind uint32

// System exception kinds (a subset of the CORBA standard set).
const (
	ExUnknown ExceptionKind = iota
	ExCommFailure
	ExObjectNotExist
	ExBadOperation
	ExTransient
	ExMarshal
	ExNoImplement
	ExInternal
	ExTimeout
	// ExCancelled reports that the caller's context was cancelled while
	// the invocation was in flight (CORBA has no direct analogue; gRPC's
	// CANCELLED). The client abandons the reply and sends a
	// MsgCancelRequest so the server can abort the dispatch.
	ExCancelled
)

func (k ExceptionKind) String() string {
	switch k {
	case ExCommFailure:
		return "COMM_FAILURE"
	case ExObjectNotExist:
		return "OBJECT_NOT_EXIST"
	case ExBadOperation:
		return "BAD_OPERATION"
	case ExTransient:
		return "TRANSIENT"
	case ExMarshal:
		return "MARSHAL"
	case ExNoImplement:
		return "NO_IMPLEMENT"
	case ExInternal:
		return "INTERNAL"
	case ExTimeout:
		return "TIMEOUT"
	case ExCancelled:
		return "CANCELLED"
	default:
		return "UNKNOWN"
	}
}

// SystemException is the CORBA system exception analogue. It is raised by
// the runtime itself (not by application code) for transport, dispatch and
// marshalling failures.
type SystemException struct {
	Kind   ExceptionKind
	Minor  uint32
	Detail string
	// RetryAfter is the server's backoff hint for TRANSIENT admission
	// sheds. It travels in the SCRetryAfter reply service context, not in
	// the CDR exception body, and is populated client-side when the reply
	// is decoded; zero means no hint.
	RetryAfter time.Duration
}

// SystemKind returns the exception kind's CORBA name ("COMM_FAILURE",
// "TIMEOUT", ...). The observability layer classifies failures through
// this method structurally, without importing orb.
func (e *SystemException) SystemKind() string { return e.Kind.String() }

func (e *SystemException) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("orb: system exception %v (minor %d)", e.Kind, e.Minor)
	}
	return fmt.Sprintf("orb: system exception %v (minor %d): %s", e.Kind, e.Minor, e.Detail)
}

// CommFailure constructs a COMM_FAILURE system exception wrapping detail.
func CommFailure(detail string) *SystemException {
	return &SystemException{Kind: ExCommFailure, Detail: detail}
}

// ObjectNotExist constructs an OBJECT_NOT_EXIST system exception.
func ObjectNotExist(key string) *SystemException {
	return &SystemException{Kind: ExObjectNotExist, Detail: key}
}

// BadOperation constructs a BAD_OPERATION system exception.
func BadOperation(op string) *SystemException {
	return &SystemException{Kind: ExBadOperation, Detail: op}
}

// IsSystemException reports whether err is (or wraps) a SystemException of
// the given kind.
func IsSystemException(err error, kind ExceptionKind) bool {
	var se *SystemException
	if errors.As(err, &se) {
		return se.Kind == kind
	}
	return false
}

// IsCommFailure reports whether err is a COMM_FAILURE — the condition the
// paper's proxy classes intercept to trigger checkpoint/restart recovery.
func IsCommFailure(err error) bool { return IsSystemException(err, ExCommFailure) }

// RetryAfterHint extracts the server's retry-after backoff hint from an
// admission-shed failure (zero when err carries none).
func RetryAfterHint(err error) time.Duration {
	var se *SystemException
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// IsAdmissionShed reports whether err is a QoS admission rejection: a
// TRANSIENT system exception carrying a retry-after hint. Sheds happen
// strictly before the servant runs, so reissuing one after the hint is
// always safe; the server is alive, so it is never a reason to recover.
func IsAdmissionShed(err error) bool {
	var se *SystemException
	return errors.As(err, &se) && se.Kind == ExTransient && se.RetryAfter > 0
}

// MarshalCDR encodes the exception as a system-exception reply body.
func (e *SystemException) MarshalCDR(enc *cdr.Encoder) {
	enc.PutUint32(uint32(e.Kind))
	enc.PutUint32(e.Minor)
	enc.PutString(e.Detail)
}

// UnmarshalCDR decodes a system-exception reply body.
func (e *SystemException) UnmarshalCDR(d *cdr.Decoder) error {
	e.Kind = ExceptionKind(d.GetUint32())
	e.Minor = d.GetUint32()
	e.Detail = d.GetString()
	return d.Err()
}

// UserException is an application-level exception declared by a service
// interface (the IDL "raises" clause analogue). Servants return one to send
// a USER_EXCEPTION reply; client stubs surface it as the call's error.
type UserException struct {
	// RepoID identifies the exception type, e.g. "IDL:repro/NotFound:1.0".
	RepoID string
	// Detail is a human-readable message.
	Detail string
	// Data optionally carries CDR-encoded exception members.
	Data []byte
}

func (e *UserException) Error() string {
	return fmt.Sprintf("orb: user exception %s: %s", e.RepoID, e.Detail)
}

// MarshalCDR encodes the exception as a user-exception reply body.
func (e *UserException) MarshalCDR(enc *cdr.Encoder) {
	enc.PutString(e.RepoID)
	enc.PutString(e.Detail)
	enc.PutBytes(e.Data)
}

// UnmarshalCDR decodes a user-exception reply body.
func (e *UserException) UnmarshalCDR(d *cdr.Decoder) error {
	e.RepoID = d.GetString()
	e.Detail = d.GetString()
	e.Data = d.GetBytes()
	return d.Err()
}

// IsUserException reports whether err is a UserException with the given
// repository id ("" matches any user exception).
func IsUserException(err error, repoID string) bool {
	var ue *UserException
	if errors.As(err, &ue) {
		return repoID == "" || ue.RepoID == repoID
	}
	return false
}
