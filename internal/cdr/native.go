package cdr

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether this host keeps a word's bytes in wire
// order, so that a fixed-size sequence's elements and its wire bytes are
// the same bytes. Where it is false the loops below convert element by
// element.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// memBytes views the elements of v as the bytes they occupy in memory.
func memBytes[T float64 | int32](v []T) []byte {
	size := len(v) * int(unsafe.Sizeof(v[0])) // Sizeof does not evaluate v[0]
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), size)
}

// putFloat64s writes v into b, which holds exactly its wire bytes.
func putFloat64s(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// getFloat64s reads out from b, which holds exactly its wire bytes.
func getFloat64s(out []float64, b []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// putInt32s writes v into b, which holds exactly its wire bytes.
func putInt32s(b []byte, v []int32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

// getInt32s reads out from b, which holds exactly its wire bytes.
func getInt32s(out []int32, b []byte) {
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}
