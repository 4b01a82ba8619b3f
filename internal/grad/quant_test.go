package grad

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = rng.NormFloat64() * 1e-12 // tiny relative to the bulk
		case 2:
			v[i] = rng.NormFloat64() * 1e6
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func roundTrip(t *testing.T, c Codec, vec []float64) []float64 {
	t.Helper()
	buf, err := AppendQuantized(GetBytes(0), c, vec)
	if err != nil {
		t.Fatalf("%v encode: %v", c, err)
	}
	got, err := Dequantize(c, buf, len(vec))
	if err != nil {
		t.Fatalf("%v decode: %v", c, err)
	}
	PutBytes(buf)
	if len(got) != len(vec) {
		t.Fatalf("%v: decoded %d elements, want %d", c, len(got), len(vec))
	}
	return got
}

// maxAbs is the largest magnitude in vec (0 for an empty one).
func maxAbs(vec []float64) float64 {
	var mx float64
	for _, v := range vec {
		mx = max(mx, math.Abs(v))
	}
	return mx
}

// TestLosslessCodecsBitExact: raw must round-trip bit-for-bit, including
// negative zero, denormals and extreme magnitudes — the bit-identity
// acceptance runs rely on it.
func TestLosslessCodecsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 1000} {
		vec := randVec(rng, n)
		vec[0] = math.Copysign(0, -1)
		if n > 2 {
			vec[1] = 5e-324 // smallest denormal
			vec[2] = math.MaxFloat64
		}
		got := roundTrip(t, CodecRaw, vec)
		for i := range vec {
			if math.Float64bits(got[i]) != math.Float64bits(vec[i]) {
				t.Fatalf("element %d not bit-exact: %x vs %x", i,
					math.Float64bits(got[i]), math.Float64bits(vec[i]))
			}
		}
	}
}

// TestInt8PerChunkError: each 64-element chunk's error is bounded by half a
// quantization step of that chunk's own scale (maxabs/254) — the documented
// trade-off for the ~7.5× bandwidth win.
func TestInt8PerChunkError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(512)
		vec := randVec(rng, n)
		got := roundTrip(t, CodecInt8, vec)
		for off := 0; off < n; off += int8ChunkLen {
			end := off + int8ChunkLen
			if end > n {
				end = n
			}
			mx := maxAbs(vec[off:end])
			// The scale itself is rounded to float32; allow that rounding on
			// top of the half-step bound.
			bound := mx/254 + mx*1e-6
			for i := off; i < end; i++ {
				if err := math.Abs(got[i] - vec[i]); err > bound {
					t.Fatalf("trial %d element %d: err %g > %g (chunk max %g)",
						trial, i, err, bound, mx)
				}
			}
		}
	}
}

// appendInt8Ref is the int8 encoder as first written — math.Round and one
// append per byte — kept as the reference the fast encoder must match byte
// for byte on finite input.
func appendInt8Ref(dst []byte, vec []float64) []byte {
	for off := 0; off < len(vec); off += int8ChunkLen {
		end := off + int8ChunkLen
		if end > len(vec) {
			end = len(vec)
		}
		chunk := vec[off:end]
		mx := maxAbs(chunk)
		var scale float64
		if mx > 0 && !math.IsInf(mx, 0) && !math.IsNaN(mx) {
			scale = mx / 127
		}
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(scale)))
		if scale == 0 {
			for range chunk {
				dst = append(dst, 0)
			}
			continue
		}
		s := float64(float32(scale))
		for _, v := range chunk {
			q := math.Round(v / s)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			dst = append(dst, byte(int8(q)))
		}
	}
	return dst
}

// checkInt8MatchesRef fails t unless the int8 codec's payload for vec,
// appended after a non-empty prefix, equals the reference's byte for byte.
func checkInt8MatchesRef(t *testing.T, name string, vec []float64) {
	t.Helper()
	prefix := []byte{0xa5, 0x5a, 0xc3}
	got, err := AppendQuantized(append([]byte(nil), prefix...), CodecInt8, vec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := appendInt8Ref(append([]byte(nil), prefix...), vec)
	if !bytes.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("%s (n=%d): payload differs from the reference first at byte %d of %d (got %d B)",
					name, len(vec), i-len(prefix), len(want)-len(prefix), len(got)-len(prefix))
			}
		}
		t.Fatalf("%s (n=%d): payload %d B, reference %d B", name, len(vec), len(got)-len(prefix), len(want)-len(prefix))
	}
}

// TestInt8MatchesReferenceEdges holds the int8 encoder to the reference on
// the inputs where a rounding shortcut would differ: exact ties at every
// half step, the one double below ½ that x+½ rounds up, quotients pushed
// past 127 by the float32 scale, signed zeros, denormals, magnitudes whose
// float32 scale underflows to 0 or overflows to +Inf, and every chunk-edge
// length.
func TestInt8MatchesReferenceEdges(t *testing.T) {
	const belowHalf = 0.49999999999999994 // largest double < 0.5
	ties := []float64{127}                // chunk max 127: the scale is exactly 1
	for k := 0; k < 127; k++ {
		ties = append(ties, float64(k)+0.5, -float64(k)-0.5)
	}
	ties = append(ties, belowHalf, -belowHalf, 1+belowHalf, -1-belowHalf, 0.5, -0.5)
	scaled := func(vec []float64, by float64) []float64 {
		out := make([]float64, len(vec))
		for i, v := range vec {
			out[i] = v * by // powers of two: exact
		}
		return out
	}
	// A chunk max whose scale mx/127 rounds down to float32 1, so mx/s lands
	// a float32 rounding above 127; and one whose scale is a float32 denormal
	// rounded down by a third, so the quotient reaches ≈ 189 and clamps.
	aboveOne := 127 * (1 + 0x1p-25 - 0x1p-40)
	denormScale := 127 * 1.49 * 0x1p-149
	cases := map[string][]float64{
		"ties scale 1":         ties,
		"ties scale 2^-10":     scaled(ties, 0x1p-10),
		"ties scale 2^40":      scaled(ties, 0x1p40),
		"ties negative max":    append([]float64{-127}, ties[1:]...),
		"float32 above 127":    {aboveOne, -aboveOne, aboveOne / 2, 126.99999999, -127.4},
		"float32 denormal":     {denormScale, -denormScale, denormScale / 2, denormScale / 3, 1e-44},
		"signed zeros":         {0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		"zero with max":        {math.Copysign(0, -1), 3, 0, -3, 1.5},
		"denormals":            {5e-324, -5e-324, 2.2e-310, -1e-315, 0},
		"denormal max /127=0":  {2.4e-322, -2.4e-322, 5e-324},
		"denormal among large": {5e-324, -5e-324, 1, 2.2e-310},
		"1e300":                {1e300, -1e300, 5e299, 1, -1e-300, 0},
		"1e-300":               {1e-300, -1e-300, 5e-301, 0, math.Copysign(0, -1), 3e-310},
		"max float":            {math.MaxFloat64, -math.MaxFloat64, 1},
		"mixed chunks":         append(append(scaled(ties[:64], 1), scaled(ties[:64], 0x1p-1000)...), 1e300, 1e-300, 0.5),
	}
	for name, vec := range cases {
		checkInt8MatchesRef(t, name, vec)
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 63, 64, 65, 100_010} {
		checkInt8MatchesRef(t, fmt.Sprintf("random n=%d", n), randVec(rng, n))
	}
	checkInt8MatchesRef(t, "empty", nil)
}

// FuzzInt8MatchesReference: on any finite vector the int8 payload equals
// the reference encoder's byte for byte. The bytes are read as
// little-endian float64s; an input holding a non-finite value is skipped
// (there the encoder deliberately differs: it poisons the chunk's scale).
func FuzzInt8MatchesReference(f *testing.F) {
	seed := func(vec ...float64) {
		b := make([]byte, 0, 8*len(vec))
		for _, v := range vec {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(127, 0.5, -0.5, 1.5, -2.5, 0.49999999999999994, -0.49999999999999994)
	seed(1e300, -1e-300, 0, math.Copysign(0, -1), 5e-324)
	seed(randVec(rand.New(rand.NewSource(1)), 130)...)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		vec := make([]float64, len(data)/8)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(vec[i]) || math.IsInf(vec[i], 0) {
				t.Skip("non-finite input")
			}
		}
		checkInt8MatchesRef(t, "fuzz", vec)
	})
}

// TestQuantizedPoisonIsNotLaundered: no codec turns a NaN or ±Inf into a
// finite vector the receiver's non-finite fence would admit. Int8 gives the
// poisoned chunk a NaN scale, so the payload does not decode, and encodes
// every other chunk exactly as before.
func TestQuantizedPoisonIsNotLaundered(t *testing.T) {
	const at = 70 // in the second of four int8 chunks
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vec := randVec(rand.New(rand.NewSource(8)), 200)
		vec[at] = poison
		for _, c := range []Codec{CodecRaw, CodecInt8} {
			q, err := AppendQuantized(nil, c, vec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Dequantize(c, q, len(vec))
			if err == nil && !InfOrNaN(got) {
				t.Errorf("%v of a vector holding %v decoded finite", c, poison)
			}
			if c == CodecInt8 {
				if !errors.Is(err, ErrQuant) {
					t.Errorf("int8 with %v: decode error %v, want ErrQuant", poison, err)
				}
				ref := appendInt8Ref(nil, vec)
				const stride = 4 + int8ChunkLen
				for off := 0; off < len(q); off += stride {
					end := min(off+stride, len(q))
					if off/stride != at/int8ChunkLen {
						if !bytes.Equal(q[off:end], ref[off:end]) {
							t.Errorf("int8 with %v: clean chunk at byte %d differs from the reference", poison, off)
						}
						continue
					}
					if s := math.Float32frombits(binary.LittleEndian.Uint32(q[off:])); !math.IsNaN(float64(s)) {
						t.Errorf("int8 with %v: poisoned chunk's scale %v, want NaN", poison, s)
					}
				}
			}
		}
	}
}

// TestQuantizedSizes pins the bandwidth claim: int8 ≥ 2× smaller than raw
// (the acceptance bound; it is ~7.5×).
func TestQuantizedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4096
	vec := randVec(rng, n)
	sizes := map[Codec]int{}
	for _, c := range []Codec{CodecRaw, CodecInt8} {
		buf, err := AppendQuantized(nil, c, vec)
		if err != nil {
			t.Fatal(err)
		}
		sizes[c] = len(buf)
	}
	if sizes[CodecRaw] != 8*n {
		t.Fatalf("raw size %d, want %d", sizes[CodecRaw], 8*n)
	}
	if 2*sizes[CodecInt8] > sizes[CodecRaw] {
		t.Fatalf("int8 payload %d B not ≥2× smaller than raw %d B", sizes[CodecInt8], sizes[CodecRaw])
	}
}

// TestDequantizeRejectsCorruption: wrong lengths, trailing bytes and bad
// scales must all reject with ErrQuant — never panic, never a silent
// mis-decode.
func TestDequantizeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vec := randVec(rng, 100)
	for _, c := range []Codec{CodecRaw, CodecInt8} {
		buf, err := AppendQuantized(nil, c, vec)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string][]byte{
			"truncated": buf[:len(buf)/2],
			"trailing":  append(append([]byte(nil), buf...), 0xff),
			"empty":     nil,
		}
		for name, p := range cases {
			if _, err := Dequantize(c, p, len(vec)); !errors.Is(err, ErrQuant) {
				t.Fatalf("%v %s: err = %v, want ErrQuant", c, name, err)
			}
		}
		// Wrong element count for an otherwise valid payload.
		if _, err := Dequantize(c, buf, len(vec)+1); !errors.Is(err, ErrQuant) {
			t.Fatalf("%v n+1: err = %v, want ErrQuant", c, err)
		}
	}
	if _, err := Dequantize(Codec(99), []byte{1}, 1); !errors.Is(err, ErrQuant) {
		t.Fatalf("unknown codec: err = %v, want ErrQuant", err)
	}
	if _, err := AppendQuantized(nil, Codec(99), vec); !errors.Is(err, ErrQuant) {
		t.Fatalf("unknown codec encode: err = %v, want ErrQuant", err)
	}
	if _, err := Dequantize(CodecRaw, nil, -1); !errors.Is(err, ErrQuant) {
		t.Fatalf("negative n: err = %v, want ErrQuant", err)
	}
	// A negative int8 scale is rejected.
	bad, _ := AppendQuantized(nil, CodecInt8, vec)
	bad[3] |= 0x80
	if _, err := Dequantize(CodecInt8, bad, len(vec)); !errors.Is(err, ErrQuant) {
		t.Fatalf("negative int8 scale: err = %v, want ErrQuant", err)
	}
}

// TestCodecParseAndNames: the CLI name set is raw and int8, indexed by codec
// byte, and round-trips; a retired codec name is refused with the two that
// remain.
func TestCodecParseAndNames(t *testing.T) {
	if got := CodecNames(); !slices.Equal(got, []string{"raw", "int8"}) {
		t.Fatalf("CodecNames() = %q, want [raw int8]", got)
	}
	for _, c := range []Codec{CodecRaw, CodecInt8} {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
		if !c.Valid() {
			t.Fatalf("%v not valid", c)
		}
	}
	if c, err := ParseCodec(""); err != nil || c != CodecRaw {
		t.Fatalf("empty name: %v, %v", c, err)
	}
	for _, name := range []string{"zstd", "fp16", "topk", "delta"} {
		_, err := ParseCodec(name)
		if err == nil || !strings.Contains(err.Error(), "raw") || !strings.Contains(err.Error(), "int8") {
			t.Fatalf("ParseCodec(%q) err = %v, want a refusal naming raw and int8", name, err)
		}
	}
	if Codec(NumCodecs).Valid() {
		t.Fatalf("codec %d reported valid", NumCodecs)
	}
}

// TestBytePoolReuse: GetBytes returns recycled capacity without allocating.
func TestBytePoolReuse(t *testing.T) {
	b := GetBytes(1024)
	if len(b) != 0 || cap(b) < 1024 {
		t.Fatalf("GetBytes: len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBytes(b)
	b2 := GetBytes(1024)
	if &b2[:1][0] != &b[0] {
		t.Fatalf("pool did not recycle: cap=%d", cap(b2))
	}
	PutBytes(b2)
	// A request below half a pooled buffer's capacity leaves it for a caller
	// that can use it.
	if tiny := GetBytes(cap(b2)/2 - 1); cap(tiny) > 0 && &tiny[:1][0] == &b[0] {
		t.Fatalf("a %d B request took the %d B buffer", cap(b2)/2-1, cap(b2))
	}
	PutBytes(nil) // must not panic
}
