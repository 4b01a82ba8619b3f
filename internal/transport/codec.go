// Shared compact float-vector codec. Gradient payloads dominate every frame
// this system persists or ships — vector frames on the wire, model snapshots
// in a checkpoint directory — so the little-endian IEEE-754 layout of the
// vector frame is exported here for every component that frames float64
// vectors (internal/checkpoint reuses it verbatim for snapshot params and
// optimizer state).
package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendFloat64s appends vec's compact binary encoding (8 bytes per element,
// little-endian IEEE-754) to dst and returns the extended slice. dst grows at
// most once; the fill is one bulk pass.
func AppendFloat64s(dst []byte, vec []float64) []byte {
	at := len(dst)
	dst = slices.Grow(dst, 8*len(vec))[:at+8*len(vec)]
	out := dst[at:]
	for _, v := range vec {
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		out = out[8:]
	}
	return dst
}

// ReadFloat64s decodes n float64s from the front of b (as written by
// AppendFloat64s) into a fresh vector and returns it with the remaining
// bytes. Short input is rejected with ErrMalformed — the caller framed the
// payload, so a truncated vector means the frame is corrupt.
func ReadFloat64s(b []byte, n int) ([]float64, []byte, error) {
	if n < 0 || n > MaxVectorLen {
		return nil, nil, fmt.Errorf("%w: vector length %d", ErrMalformed, n)
	}
	if len(b) < 8*n {
		return nil, nil, fmt.Errorf("%w: %d bytes for %d float64s", ErrMalformed, len(b), n)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]float64, n)
	rest, _ := ReadFloat64sInto(out, b)
	return out, rest, nil
}

// ReadFloat64sInto decodes len(dst) float64s from the front of b into dst —
// the allocation-free form for pooled destinations — and returns the
// remaining bytes. Short input is rejected with ErrMalformed.
func ReadFloat64sInto(dst []float64, b []byte) ([]byte, error) {
	if len(b) < 8*len(dst) {
		return nil, fmt.Errorf("%w: %d bytes for %d float64s", ErrMalformed, len(b), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return b, nil
}
