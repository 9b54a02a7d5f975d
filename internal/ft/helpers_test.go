package ft

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
)

// putFull and getFull keep the (epoch, data) shape of the pre-Checkpoint
// Store API for tests that exercise plain full-snapshot semantics; the
// delta paths are tested against the Checkpoint type directly.

func putFull(ctx context.Context, s Store, key string, epoch uint64, data []byte) error {
	return s.Put(ctx, key, Full(epoch, data))
}

func getFull(ctx context.Context, s Store, key string) (uint64, []byte, error) {
	cp, err := s.Get(ctx, key)
	return cp.Epoch, cp.Data, err
}

// decodeCounterState decodes a counterServant checkpoint payload.
func decodeCounterState(t *testing.T, data []byte) int64 {
	t.Helper()
	d := cdr.NewDecoder(data)
	v := d.GetInt64()
	if err := d.Err(); err != nil {
		t.Fatalf("decoding counter state: %v", err)
	}
	return v
}

// encodeInt64Arg / discardInt64Reply are the marshal halves of a counter
// "inc" call for tests that go through Proxy.Call directly.
func encodeInt64Arg(v int64) func(*cdr.Encoder) {
	return func(e *cdr.Encoder) { e.PutInt64(v) }
}

func discardInt64Reply(d *cdr.Decoder) error {
	_ = d.GetInt64()
	return d.Err()
}

// recordingStore wraps a Store and keeps every Put it saw, optionally
// failing selected Puts to exercise the proxy's fallback paths.
type recordingStore struct {
	inner Store

	mu   sync.Mutex
	puts []Checkpoint
	// failPut, when non-nil, is consulted before each Put; a non-nil
	// return fails the Put without reaching the inner store.
	failPut func(cp Checkpoint) error
}

func (s *recordingStore) Put(ctx context.Context, key string, cp Checkpoint) error {
	s.mu.Lock()
	cp.Data = bytes.Clone(cp.Data) // Put may not keep cp.Data
	s.puts = append(s.puts, cp)
	fail := s.failPut
	s.mu.Unlock()
	if fail != nil {
		if err := fail(cp); err != nil {
			return err
		}
	}
	return s.inner.Put(ctx, key, cp)
}

func (s *recordingStore) Get(ctx context.Context, key string) (Checkpoint, error) {
	return s.inner.Get(ctx, key)
}

func (s *recordingStore) Delete(ctx context.Context, key string) error {
	return s.inner.Delete(ctx, key)
}

func (s *recordingStore) Keys(ctx context.Context) ([]string, error) {
	return s.inner.Keys(ctx)
}

func (s *recordingStore) history() []Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Checkpoint(nil), s.puts...)
}

// clientHook is an orb.CallInterceptor whose client-side points run test
// code: sent sees every request as it leaves, reply every reply as it is
// handed back (both on the calling goroutine).
type clientHook struct {
	sent  func(m *giop.Message)
	reply func(req, reply *giop.Message, err error)
}

func (h *clientHook) RequestSent(ctx context.Context, m *giop.Message) context.Context {
	if h.sent != nil {
		h.sent(m)
	}
	return ctx
}

func (h *clientHook) ReplyReceived(_ context.Context, req, reply *giop.Message, err error) {
	if h.reply != nil {
		h.reply(req, reply, err)
	}
}

func (h *clientHook) DispatchStart(ctx context.Context, _ *giop.Message) context.Context { return ctx }
func (h *clientHook) DispatchEnd(context.Context, *giop.Message, *giop.Message)          {}

// afterServant runs after once the counter has executed an inc, with the
// value it reached — the point at which a test kills the reply's way back.
type afterServant struct {
	*counterServant
	after func(value int64)
}

func (s *afterServant) Invoke(ctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	err := s.counterServant.Invoke(ctx, op, in, out)
	if err == nil && op == "inc" {
		s.mu.Lock()
		v := s.value
		s.mu.Unlock()
		s.after(v)
	}
	return err
}
