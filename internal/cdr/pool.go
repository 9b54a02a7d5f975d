package cdr

import "sync"

// RetainLimit is the one retention rule of the data path: a buffer that
// served a message is kept for the next one — by the encoder pool here,
// by the message layer's write scratch and by its read windows — unless
// its capacity exceeds this. 1 MiB holds the bulk traffic this runtime
// exists for (solver state and checkpoint blobs of tens to hundreds of
// KiB) with room to spare, so a connection that moves such messages
// allocates nothing per message; an occasional giant one is dropped after
// use instead of pinning its buffer in every pool it passed through.
const RetainLimit = 1 << 20

// encoderPool recycles Encoders across requests: the invocation hot path
// acquires one per request body (client and server side), so without a
// pool every call allocates and grows a fresh buffer.
var encoderPool = sync.Pool{
	New: func() any { return NewEncoder(512) },
}

// decoderPool recycles Decoders; a Decoder is tiny but the invocation
// path creates several per call (reply body, nested values), and they are
// all release-safe at well-defined points.
var decoderPool = sync.Pool{
	New: func() any { return new(Decoder) },
}

// AcquireEncoder returns an empty pooled Encoder. Callers must not retain
// slices returned by Bytes past Release: the buffer is recycled. Pair
// every Acquire with exactly one Release; dropping an Encoder without
// releasing is safe (it is simply collected).
func AcquireEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Release returns the Encoder to the pool. The Encoder must not be used
// afterwards, and no slice previously returned by Bytes may be read —
// the next AcquireEncoder will overwrite it. Buffers above RetainLimit are
// dropped rather than pooled.
func (e *Encoder) Release() {
	if e == nil {
		return
	}
	if cap(e.buf) > RetainLimit {
		e.buf = nil
	}
	e.Reset()
	encoderPool.Put(e)
}

// Reset re-points the Decoder at data, clearing position and any sticky
// error, so one Decoder can be reused across messages.
func (d *Decoder) Reset(data []byte) {
	d.data = data
	d.pos = 0
	d.err = nil
}

// AcquireDecoder returns a pooled Decoder positioned at the start of
// data. The Decoder does not copy data. Pair with Release once decoding
// is complete; values decoded with Get* (strings, byte slices, sequences)
// are copies and stay valid after Release.
func AcquireDecoder(data []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(data)
	return d
}

// Release returns the Decoder to the pool. The Decoder must not be used
// afterwards; the data slice it was reading is not touched.
func (d *Decoder) Release() {
	if d == nil {
		return
	}
	d.Reset(nil)
	decoderPool.Put(d)
}
