package cluster

import (
	"context"
	"encoding/binary"
	"math"

	"repro/internal/giop"
	"repro/internal/orb"
)

// TimeInterceptor propagates virtual time through GIOP service contexts:
// outgoing requests and replies are stamped with the local clock, incoming
// ones merge the clock forward (Lamport receive rule), optionally charging
// a fixed per-message network latency.
//
// With one interceptor installed per simulated process, the virtual time
// observed by a client after a synchronous call equals the causal critical
// path through the servant — which is exactly the quantity the paper's
// Figure 3 measures with wall clocks.
type TimeInterceptor struct {
	clock *Clock
	// Latency is the virtual one-way network latency in seconds added on
	// every received message.
	Latency float64
}

// NewTimeInterceptor builds an interceptor bound to clock.
func NewTimeInterceptor(clock *Clock) *TimeInterceptor {
	return &TimeInterceptor{clock: clock}
}

var _ orb.CallInterceptor = (*TimeInterceptor)(nil)

// The SCVirtualTime payload is the float64's bits, little-endian like the
// rest of the wire.
func encodeTime(t float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(t))
}

func decodeTime(b []byte) (float64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), true
}

func (ti *TimeInterceptor) stamp(m *giop.Message) {
	m.SetContext(giop.SCVirtualTime, encodeTime(ti.clock.Now()))
}

func (ti *TimeInterceptor) merge(m *giop.Message) {
	if t, ok := decodeTime(m.Context(giop.SCVirtualTime)); ok {
		ti.clock.Merge(t + ti.Latency)
	}
}

// RequestSent implements orb.CallInterceptor.
func (ti *TimeInterceptor) RequestSent(ctx context.Context, m *giop.Message) context.Context {
	ti.stamp(m)
	return ctx
}

// ReplyReceived implements orb.CallInterceptor.
func (ti *TimeInterceptor) ReplyReceived(_ context.Context, _, reply *giop.Message, _ error) {
	if reply != nil {
		ti.merge(reply)
	}
}

// DispatchStart implements orb.CallInterceptor.
func (ti *TimeInterceptor) DispatchStart(ctx context.Context, req *giop.Message) context.Context {
	ti.merge(req)
	return ctx
}

// DispatchEnd implements orb.CallInterceptor.
func (ti *TimeInterceptor) DispatchEnd(_ context.Context, _, reply *giop.Message) {
	if reply != nil {
		ti.stamp(reply)
	}
}
