// Gradient wire codecs: raw float64 (lossless) and int8 (a bounded-error
// quantizer). Each turns a float64 gradient vector into a byte payload and
// back. The package stays a leaf: encoders/decoders speak plain byte slices,
// and the pooled byte buffers mirror the gradient buffer pool so steady-state
// encode allocates nothing.

package grad

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ErrQuant marks a quantized payload that does not decode: wrong length or a
// non-finite scale. The transport layer wraps it as ErrMalformed.
var ErrQuant = errors.New("grad: malformed quantized payload")

// Codec identifies a gradient wire codec. The zero value (CodecRaw) is the
// uncompressed float64 encoding.
type Codec byte

const (
	// CodecRaw is uncompressed little-endian float64 (8 B/elem, lossless).
	CodecRaw Codec = iota
	// CodecInt8 is linear int8 quantization with one float32 scale per
	// 64-element chunk (≈1.06 B/elem, per-chunk |err| ≤ maxabs/254). A
	// chunk holding a NaN or ±Inf gets a NaN scale, which does not decode.
	CodecInt8

	// NumCodecs is the number of defined codec bytes; anything ≥ NumCodecs
	// is malformed on the wire.
	NumCodecs = 2
)

// int8ChunkLen is the Int8 quantization granularity: one float32 scale per
// this many elements.
const int8ChunkLen = 64

// Valid reports whether c is a defined codec byte.
func (c Codec) Valid() bool { return c < NumCodecs }

// String names the codec ("raw", "int8").
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecInt8:
		return "int8"
	}
	return fmt.Sprintf("codec(%d)", byte(c))
}

// ParseCodec maps a codec name (as accepted by the -codec CLI flag) to its
// byte. The empty string parses as CodecRaw.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "raw":
		return CodecRaw, nil
	case "int8":
		return CodecInt8, nil
	}
	return CodecRaw, fmt.Errorf("grad: unknown codec %q (want raw or int8)", s)
}

// CodecNames lists every defined codec's name indexed by its byte, for
// labeling per-codec metric families.
func CodecNames() []string {
	names := make([]string, NumCodecs)
	for i := range names {
		names[i] = Codec(i).String()
	}
	return names
}

// AppendQuantized appends the codec-c encoding of vec to dst and returns the
// extended slice. Pair with GetBytes/PutBytes for an allocation-free encode
// path.
func AppendQuantized(dst []byte, c Codec, vec []float64) ([]byte, error) {
	switch c {
	case CodecRaw:
		return appendRaw(dst, vec), nil
	case CodecInt8:
		return appendInt8(dst, vec), nil
	}
	return dst, fmt.Errorf("%w: unknown codec %d", ErrQuant, byte(c))
}

// Dequantize decodes a codec-c payload of n elements into a fresh vector.
// The payload must be consumed exactly — truncated or over-long payloads and
// non-finite scales are ErrQuant.
func Dequantize(c Codec, payload []byte, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrQuant, n)
	}
	// Every codec spends at least one byte per element, so a short payload
	// is rejected before the vector it claims to hold is allocated.
	if n > len(payload) {
		return nil, fmt.Errorf("%w: %d B payload for %d elements", ErrQuant, len(payload), n)
	}
	out := make([]float64, n)
	if err := DequantizeInto(out, c, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// DequantizeInto decodes a codec-c payload of len(dst) elements into dst —
// the pooled receive path (pair with GetBuffer). Same contract as Dequantize;
// on error dst's contents are unspecified.
func DequantizeInto(dst []float64, c Codec, payload []byte) error {
	switch c {
	case CodecRaw:
		return decodeRaw(dst, payload)
	case CodecInt8:
		return decodeInt8(dst, payload)
	}
	return fmt.Errorf("%w: unknown codec %d", ErrQuant, byte(c))
}

// --- raw ---

func appendRaw(dst []byte, vec []float64) []byte {
	for _, v := range vec {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeRaw(out []float64, p []byte) error {
	if len(p) != 8*len(out) {
		return fmt.Errorf("%w: raw payload %d B for %d elements", ErrQuant, len(p), len(out))
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return nil
}

// --- int8 ---

// absBits is |v|'s bit pattern. Non-negative doubles order as their bits do,
// and every NaN's bits lie above +Inf's, so comparing absBits orders
// magnitudes with NaN above all of them.
func absBits(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// int8NonFinite, a float32 quiet NaN, is the scale of a chunk holding a NaN
// or ±Inf. decodeInt8 refuses it, so a poisoned upload fails decode instead
// of arriving finite.
const int8NonFinite = 0x7fc00000

// belowHalf is the largest double below ½: the one x in (-½, ½) for which
// x + ½ rounds up to 1.
const belowHalf = 0.49999999999999994

func appendInt8(dst []byte, vec []float64) []byte {
	at := len(dst)
	dst = slices.Grow(dst, int8PayloadLen(len(vec)))[:at+int8PayloadLen(len(vec))]
	out := dst[at:]
	for off := 0; off < len(vec); off += int8ChunkLen {
		chunk := vec[off:min(off+int8ChunkLen, len(vec))]
		hdr, q := out[:4], out[4:4+len(chunk)]
		out = out[4+len(chunk):]
		var mxBits uint64
		for _, v := range chunk {
			mxBits = max(mxBits, absBits(v))
		}
		if mxBits >= absBits(math.Inf(1)) {
			binary.LittleEndian.PutUint32(hdr, int8NonFinite)
			clear(q)
			continue
		}
		scale := math.Float64frombits(mxBits) / 127
		binary.LittleEndian.PutUint32(hdr, math.Float32bits(float32(scale)))
		if scale == 0 {
			clear(q)
			continue
		}
		// The decoder multiplies by the float32 scale, so quantize against
		// the same rounded value.
		s := float64(float32(scale))
		if s == 0 {
			// The scale underflowed float32, so every value decodes as 0.
			// The codes are what quantizing against 0 gives: v/0 is ±Inf and
			// saturates, 0/0 is NaN and converts to 0.
			for i, v := range chunk {
				switch {
				case v > 0:
					q[i] = 127
				case v < 0:
					q[i] = 0x81 // int8(-127)
				default:
					q[i] = 0
				}
			}
			continue
		}
		for i, v := range chunk {
			// Truncating x ± ½ rounds half away from zero, as math.Round
			// does, for every |x| < 2⁵² but belowHalf, where the sum itself
			// rounds up to 1. Here |x| < 191.
			x := v / s
			r := x + math.Copysign(0.5, x)
			if math.Abs(x) == belowHalf {
				r = 0
			}
			q[i] = byte(int8(min(max(int64(r), -127), 127)))
		}
	}
	return dst
}

func int8PayloadLen(n int) int {
	chunks := (n + int8ChunkLen - 1) / int8ChunkLen
	return 4*chunks + n
}

func decodeInt8(out []float64, p []byte) error {
	n := len(out)
	if len(p) != int8PayloadLen(n) {
		return fmt.Errorf("%w: int8 payload %d B for %d elements", ErrQuant, len(p), n)
	}
	pos := 0
	for off := 0; off < n; off += int8ChunkLen {
		end := off + int8ChunkLen
		if end > n {
			end = n
		}
		scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(p[pos:])))
		pos += 4
		if math.IsInf(scale, 0) || math.IsNaN(scale) || scale < 0 {
			return fmt.Errorf("%w: int8 scale %v", ErrQuant, scale)
		}
		for i := off; i < end; i++ {
			out[i] = float64(int8(p[pos])) * scale
			pos++
		}
	}
	return nil
}

// bytePool recycles codec payload buffers between iterations, mirroring the
// gradient buffer pool: a bounded freelist so Get/Put never allocate.
var bytePool = struct {
	mu   sync.Mutex
	bufs [][]byte
}{}

// maxPooledByteBufs bounds the byte freelist; beyond it PutBytes drops
// buffers for the GC.
const maxPooledByteBufs = 64

// GetBytes returns a zero-length byte slice with capacity ≥ n from the pool,
// for use as an AppendQuantized or wire-frame destination. Return it with
// PutBytes. Like GetBuffer, a pooled buffer serves only requests of at least
// half its capacity.
func GetBytes(n int) []byte {
	bytePool.mu.Lock()
	for i := len(bytePool.bufs) - 1; i >= 0; i-- {
		if b := bytePool.bufs[i]; cap(b) >= n && cap(b)/2 <= n {
			last := len(bytePool.bufs) - 1
			bytePool.bufs[i] = bytePool.bufs[last]
			bytePool.bufs[last] = nil
			bytePool.bufs = bytePool.bufs[:last]
			bytePool.mu.Unlock()
			return b[:0]
		}
	}
	bytePool.mu.Unlock()
	return make([]byte, 0, n)
}

// PutBytes recycles a buffer previously obtained from GetBytes (or any
// caller-owned byte slice no longer referenced). The caller must not use b
// afterwards.
func PutBytes(b []byte) {
	if cap(b) == 0 {
		return
	}
	bytePool.mu.Lock()
	if len(bytePool.bufs) < maxPooledByteBufs {
		bytePool.bufs = append(bytePool.bufs, b[:0])
	}
	bytePool.mu.Unlock()
}
