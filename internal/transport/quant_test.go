package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
)

// TestVectorFrameChunkBound pins the regression where a Chunk above the
// uint32 header range passed the fast-path check and was silently truncated
// by the frame encoder, decoding as the wrong chunk index. Such a frame is
// refused at the sender, whole, instead of mis-joined at the receiver.
func TestVectorFrameChunkBound(t *testing.T) {
	huge := &Envelope{Type: MsgGradient, Chunk: math.MaxUint32>>1 + 1, Chunks: 10, Vector: []float64{1}}
	if _, err := vectorFrameLen(huge); !errors.Is(err, ErrMalformed) {
		t.Fatalf("vectorFrameLen accepted Chunk above the uint32 header range: %v", err)
	}
	ok := &Envelope{Type: MsgGradient, Chunk: 3, Chunks: 10, Vector: []float64{1}}
	if _, err := vectorFrameLen(ok); err != nil {
		t.Fatalf("vectorFrameLen rejected a plain in-range gradient: %v", err)
	}

	// End to end: the batch holding the oversized chunk index never reaches
	// the wire, not even its in-range neighbour.
	var out bytes.Buffer
	c := NewConn(&memConn{r: bytes.NewReader(nil), w: &out})
	if err := c.SendBatch([]*Envelope{ok, huge}); !errors.Is(err, ErrMalformed) || out.Len() != 0 {
		t.Fatalf("SendBatch(oversized chunk index) = %v with %d bytes written, want ErrMalformed and none", err, out.Len())
	}
}

// TestSendBatchSingleRejectsBatch pins the regression where SendBatch's
// single-envelope shortcut skipped the nested-batch rejection: a lone
// envelope carrying the retired batch number is refused like a longer batch.
func TestSendBatchSingleRejectsBatch(t *testing.T) {
	a, _ := pipePair(t)
	err := a.SendBatch([]*Envelope{{Type: MsgType(8)}})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("SendBatch(single retired batch number) = %v, want ErrMalformed", err)
	}
}

// TestQuantRoundTripOverWire ships a chunked gradient through a real
// connection under both codecs, both batched (several sub-frames) and as a
// single frame, and checks the receiver — which only ever sees
// dequantized Vectors — reassembles it within the codec's error model.
func TestQuantRoundTripOverWire(t *testing.T) {
	vec := make([]float64, 1000)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) * float64(i%17)
	}
	for _, codec := range []grad.Codec{grad.CodecRaw, grad.CodecInt8} {
		for _, chunkLen := range []int{0, 64} { // 0: one frame; 64: batched sub-frames
			a, b := pipePair(t)
			frames := quantChunks(t, Envelope{WorkerID: 3, Iter: 7}, vec, chunkLen, codec)
			if codec != grad.CodecRaw {
				for _, f := range frames {
					if len(f.Quant) == 0 || f.Codec != byte(codec) || f.Vector != nil {
						t.Fatalf("%s: frame not quantized: %+v", codec, f)
					}
				}
			}
			if err := a.SendBatch(frames); err != nil {
				t.Fatal(err)
			}
			var got []*Envelope
			for range frames {
				e, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if len(e.Quant) != 0 || e.QuantLen != 0 {
					t.Fatalf("%s: Recv leaked a quantized payload above the transport", codec)
				}
				got = append(got, e)
			}
			joined, err := JoinChunks(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if len(joined) != len(vec) {
				t.Fatalf("%s: joined %d elements, want %d", codec, len(joined), len(vec))
			}
			checkCodecError(t, codec, vec, joined, chunkLen)
			a.Close()
			b.Close()
		}
	}
}

// quantChunks chunks vec like ChunkGradient and, under a quantizing codec,
// encodes each chunk's payload with grad.AppendQuantized.
func quantChunks(t testing.TB, tmpl Envelope, vec []float64, chunkLen int, codec grad.Codec) []*Envelope {
	t.Helper()
	frames := ChunkGradient(tmpl, vec, chunkLen)
	if codec == grad.CodecRaw {
		return frames
	}
	for _, e := range frames {
		q, err := grad.AppendQuantized(nil, codec, e.Vector)
		if err != nil {
			t.Fatal(err)
		}
		e.Codec, e.Quant, e.QuantLen, e.Vector = byte(codec), q, len(e.Vector), nil
	}
	return frames
}

// checkCodecError asserts the decoded vector against the codec's error
// model: bit-exact for raw, bounded relative error for int8.
func checkCodecError(t *testing.T, codec grad.Codec, want, got []float64, chunkLen int) {
	t.Helper()
	mx := 0.0
	for _, v := range want {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	for i := range want {
		switch codec {
		case grad.CodecRaw:
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d not bit-exact: %v != %v", codec, i, got[i], want[i])
			}
		case grad.CodecInt8:
			// Per-chunk bound is maxabs/254 of the int8 scale chunk; the
			// global maxabs bound is looser but always valid.
			if math.Abs(got[i]-want[i]) > mx/254+mx*1e-6 {
				t.Fatalf("int8: element %d error %v above maxabs/254", i, math.Abs(got[i]-want[i]))
			}
		}
	}
}

// TestQuantCorruptionRejected sends hostile quantized frames — unknown codec
// bytes, payloads that do not decode or outgrow int8's 5 B per element, codec
// bytes on the wrong message types — and requires a typed ErrMalformed for each: from the sender where
// the vector frame cannot carry the envelope, from the receiver otherwise.
func TestQuantCorruptionRejected(t *testing.T) {
	goodQuant := func() ([]byte, int) {
		q, err := grad.AppendQuantized(nil, grad.CodecInt8, []float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return q, 3
	}
	q, n := goodQuant()
	nanScale := append([]byte{0, 0, 0xc0, 0x7f}, q[4:]...) // float32 NaN

	hostile := []struct {
		name string
		env  *Envelope
	}{
		{"unknown codec byte", &Envelope{Type: MsgGradient, Codec: 99, Quant: q, QuantLen: n}},
		{"raw codec with quant payload", &Envelope{Type: MsgGradient, Codec: 0, Quant: q, QuantLen: n}},
		{"undecodable payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: nanScale, QuantLen: n}},
		{"truncated payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: q[:5], QuantLen: n}},
		{"both payloads", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: q, QuantLen: n, Vector: []float64{1}}},
		{"zero quant length", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: q}},
		{"oversized quant payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: make([]byte, 200), QuantLen: 2}},
		{"quant payload over 5 B per element", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: make([]byte, 11), QuantLen: 2}},
		{"unknown codec on a hello", &Envelope{Type: MsgHello, WorkerID: 1, Codec: 7}},
		{"codec byte on params", &Envelope{Type: MsgParams, Vector: []float64{1}, Codec: byte(grad.CodecInt8)}},
	}
	for _, tc := range hostile {
		a, b := pipePair(t)
		err := a.Send(tc.env)
		if err == nil {
			_, err = b.Recv()
		}
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", tc.name, err)
		}
		a.Close()
		b.Close()
	}

	// Batch-framed corruption: a quantized sub-frame with an unknown gradient
	// codec byte, and one whose payload fails to dequantize.
	valid := quantChunks(t, Envelope{WorkerID: 1}, []float64{1, 2, 3, 4}, 2, grad.CodecInt8)
	raw := encodeBatch(valid...)
	flip := func(mutate func(b []byte)) error {
		cp := append([]byte(nil), raw...)
		mutate(cp)
		_, err := decodeBatch(cp)
		return err
	}
	if err := flip(func(b []byte) { b[4+2] = 0x07 }); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown sub-frame gradient codec: %v, want ErrMalformed", err)
	}
	if err := flip(func(b []byte) {
		// Change the first sub-frame's declared element count so the int8
		// payload no longer matches it.
		binary.LittleEndian.PutUint32(b[4+vectorHeaderLen-4:], 9)
	}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mismatched quant length: %v, want ErrMalformed", err)
	}
	if _, err := decodeBatch(raw[:len(raw)-3]); !errors.Is(err, ErrMalformed) {
		t.Fatal("truncated quant sub-frame accepted")
	}
}

// TestWireCodecCounters checks the per-codec gradient counters move with the
// payload that actually crossed the wire, raw and quantized.
func TestWireCodecCounters(t *testing.T) {
	a, b := pipePair(t)
	defer a.Close()
	defer b.Close()
	vec := make([]float64, 256)
	for i := range vec {
		vec[i] = float64(i)
	}
	_, rawOutBefore, _, rawBytesOutBefore := WireCodec(byte(grad.CodecRaw))
	int8InBefore, _, int8BytesInBefore, _ := WireCodec(byte(grad.CodecInt8))

	frames := quantChunks(t, Envelope{WorkerID: 1}, vec, 64, grad.CodecInt8)
	if err := a.SendBatch(frames); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Envelope{Type: MsgGradient, WorkerID: 1, Vector: vec}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(frames)+1; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	_, rawOut, _, rawBytesOut := WireCodec(byte(grad.CodecRaw))
	if rawOut-rawOutBefore < 1 || rawBytesOut-rawBytesOutBefore < uint64(8*len(vec)) {
		t.Fatalf("raw out counters did not advance: frames %d bytes %d", rawOut-rawOutBefore, rawBytesOut-rawBytesOutBefore)
	}
	int8In, _, int8BytesIn, _ := WireCodec(byte(grad.CodecInt8))
	if int8In-int8InBefore < uint64(len(frames)) || int8BytesIn == int8BytesInBefore {
		t.Fatalf("int8 in counters did not advance: frames %d", int8In-int8InBefore)
	}
	if fi, fo, bi, bo := WireCodec(200); fi|fo|bi|bo != 0 {
		t.Fatal("out-of-range codec reads nonzero")
	}
}
