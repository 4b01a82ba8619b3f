package transport

import (
	"encoding/binary"
	"unsafe"
)

// hostLittleEndian reports whether a []float64's memory already is its wire
// encoding (8 bytes per element, little-endian IEEE-754). Where it is, a raw
// payload is written from, and read into, the vector itself. Where it is not,
// the wire does not change: the send copies through AppendFloat64s and the
// receive swaps the bytes it read in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes returns vec's own memory as bytes, in host order.
func floatBytes(vec []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 8*len(vec))
}

// swapFloatBytes reverses the byte order of every 8-byte element of b.
func swapFloatBytes(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, binary.BigEndian.Uint64(b))
	}
}
