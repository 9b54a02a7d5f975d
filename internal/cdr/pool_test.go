package cdr

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestEncoderPoolNoAliasing hammers the encoder pool from many goroutines
// (run with -race): each goroutine encodes a distinct payload, copies it,
// releases the encoder and verifies the copy never mutates — i.e. Release
// followed by another goroutine's Acquire cannot alias live data.
func TestEncoderPoolNoAliasing(t *testing.T) {
	const goroutines = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := AcquireEncoder()
				marker := fmt.Sprintf("g%d-i%d", g, i)
				e.PutString(marker)
				e.PutUint64(uint64(g)<<32 | uint64(i))
				snapshot := append([]byte(nil), e.Bytes()...)
				live := e.Bytes()
				if !bytes.Equal(snapshot, live) {
					t.Errorf("g%d: bytes changed before release", g)
				}
				e.Release()
				// After release another goroutine may reuse the buffer;
				// only the snapshot may be consulted.
				d := AcquireDecoder(snapshot)
				if got := d.GetString(); got != marker {
					t.Errorf("g%d: marker = %q, want %q", g, got, marker)
				}
				if got := d.GetUint64(); got != uint64(g)<<32|uint64(i) {
					t.Errorf("g%d: payload mismatch", g)
				}
				if err := d.Err(); err != nil {
					t.Errorf("g%d: decode: %v", g, err)
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestDecoderReset verifies Reset clears position and sticky errors.
func TestDecoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.PutUint32(7)
	d := AcquireDecoder(e.Bytes())
	if got := d.GetUint32(); got != 7 {
		t.Fatalf("GetUint32 = %d, want 7", got)
	}
	d.GetUint64() // runs off the end: sticky error
	if d.Err() == nil {
		t.Fatal("want truncation error")
	}
	d.Reset(e.Bytes())
	if d.Err() != nil {
		t.Fatalf("error survived Reset: %v", d.Err())
	}
	if got := d.GetUint32(); got != 7 {
		t.Fatalf("after Reset GetUint32 = %d, want 7", got)
	}
	d.Release()
}

// TestEncoderPoolDropsOversized ensures giant buffers are not pinned by
// the pool.
func TestEncoderPoolDropsOversized(t *testing.T) {
	e := AcquireEncoder()
	e.PutRaw(make([]byte, RetainLimit+1))
	e.Release()
	if e.buf != nil {
		t.Fatalf("oversized buffer retained (cap %d)", cap(e.buf))
	}
}
