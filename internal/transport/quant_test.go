package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
)

// TestVectorFrameChunkBound pins the regression where a Chunk above the
// uint32 header range passed the fast-path check and was silently truncated
// by the frame encoder, decoding as the wrong chunk index. Such a frame must
// take the gob path, where the receiver rejects the out-of-range chunk
// sequence instead of mis-joining it.
func TestVectorFrameChunkBound(t *testing.T) {
	huge := &Envelope{Type: MsgGradient, Chunk: math.MaxUint32>>1 + 1, Chunks: 10, Vector: []float64{1}}
	if _, fits := vectorFrameLen(huge); fits {
		t.Fatal("vectorFrameLen accepted Chunk above the uint32 header range")
	}
	ok := &Envelope{Type: MsgGradient, Chunk: 3, Chunks: 10, Vector: []float64{1}}
	if _, fits := vectorFrameLen(ok); !fits {
		t.Fatal("vectorFrameLen rejected a plain in-range gradient")
	}

	// End to end: the oversized chunk index must reach the receiver intact
	// (and be rejected as malformed), never truncated into a plausible one.
	var payload bytes.Buffer
	if err := encodeBatch(&payload, []*Envelope{ok, huge}); err != nil {
		t.Fatal(err)
	}
	_, err := decodeBatch(payload.Bytes())
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("decodeBatch(oversized chunk index) = %v, want ErrMalformed", err)
	}
}

// TestSendBatchSingleRejectsBatch pins the regression where SendBatch's
// single-envelope shortcut skipped the nested-batch rejection, letting a
// hand-built MsgBatch envelope ship unvalidated.
func TestSendBatchSingleRejectsBatch(t *testing.T) {
	a, _ := pipePair(t)
	err := a.SendBatch([]*Envelope{{Type: MsgBatch, Batch: []byte{1, 2, 3}}})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("SendBatch(single MsgBatch) = %v, want ErrMalformed", err)
	}
}

// TestQuantRoundTripOverWire ships a chunked gradient through a real
// connection under every codec, both batched (compact sub-frames) and as
// single gob envelopes, and checks the receiver — which only ever sees
// dequantized Vectors — reassembles it within the codec's error model.
func TestQuantRoundTripOverWire(t *testing.T) {
	vec := make([]float64, 1000)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) * float64(i%17)
	}
	for _, codec := range []grad.Codec{grad.CodecRaw, grad.CodecFP16, grad.CodecInt8, grad.CodecTopK, grad.CodecDelta} {
		for _, chunkLen := range []int{0, 64} { // 0: one frame (gob envelope path); 64: batched sub-frames
			a, b := pipePair(t)
			frames, err := ChunkGradientQuant(Envelope{WorkerID: 3, Iter: 7}, vec, chunkLen, codec)
			if err != nil {
				t.Fatal(err)
			}
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
			ReleaseQuant(frames)
			a.Close()
			b.Close()
		}
	}
}

// checkCodecError asserts the decoded vector against the codec's error
// model: bit-exact for lossless codecs, bounded relative error for the
// quantizers, exact-or-zero for the sparsifier.
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
		case grad.CodecRaw, grad.CodecDelta:
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d not bit-exact: %v != %v", codec, i, got[i], want[i])
			}
		case grad.CodecFP16:
			if math.Abs(got[i]-want[i]) > 1e-3*mx {
				t.Fatalf("fp16: element %d error %v above 1e-3·maxabs", i, math.Abs(got[i]-want[i]))
			}
		case grad.CodecInt8:
			// Per-chunk bound is maxabs/254 of the int8 scale chunk; the
			// global maxabs bound is looser but always valid.
			if math.Abs(got[i]-want[i]) > mx/254+mx*1e-6 {
				t.Fatalf("int8: element %d error %v above maxabs/254", i, math.Abs(got[i]-want[i]))
			}
		case grad.CodecTopK:
			if got[i] != 0 && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("topk: element %d neither dropped nor exact: %v != %v", i, got[i], want[i])
			}
		}
	}
}

// TestMixedVersionRawFallback covers the un-upgraded-peer path at the frame
// level: envelopes with no codec fields (what an old peer sends) round-trip
// as raw float64 against an upgraded receiver, and a hello without a codec
// advertisement still validates.
func TestMixedVersionRawFallback(t *testing.T) {
	a, b := pipePair(t)
	defer a.Close()
	defer b.Close()
	if err := a.Send(&Envelope{Type: MsgHello, WorkerID: HelloNewWorker}); err != nil {
		t.Fatal(err)
	}
	hello, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(hello.Codecs) != 0 || hello.Codec != 0 {
		t.Fatalf("legacy hello grew codec fields: %+v", hello)
	}
	vec := []float64{1.5, -2.25, 0, 3.75}
	if err := a.Send(&Envelope{Type: MsgGradient, Iter: 1, WorkerID: 4, Vector: vec}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if math.Float64bits(e.Vector[i]) != math.Float64bits(vec[i]) {
			t.Fatalf("raw gradient element %d not bit-exact", i)
		}
	}
	// An upgraded peer's hello with an advertisement also validates.
	adv := &Envelope{Type: MsgHello, WorkerID: HelloNewWorker, Codecs: grad.AdvertiseCodecs()}
	if err := adv.validate(); err != nil {
		t.Fatalf("advertised hello rejected: %v", err)
	}

	// The other mixed-version axis: a peer that advertises codecs but not the
	// vector frame. The encoding follows the negotiation, never the payload:
	// until both sides named CapVectorFrame the same gradient leaves as a gob
	// envelope (a gob message never opens with the frame marker), and an
	// upgraded receiver decodes either stream to the same envelope.
	sent := &Envelope{Type: MsgGradient, Iter: 1, WorkerID: 4, Vector: vec}
	var decoded [2]*Envelope
	for i, negotiated := range []bool{false, true} {
		var out bytes.Buffer
		c := NewConn(&memConn{r: bytes.NewReader(nil), w: &out})
		if negotiated {
			c.UseVectorFrames()
		}
		if err := c.Send(sent); err != nil {
			t.Fatal(err)
		}
		if framed := out.Bytes()[0] == frameMarker; framed != negotiated {
			t.Fatalf("negotiated=%v but the gradient left framed=%v", negotiated, framed)
		}
		got, err := NewConn(&memConn{r: bytes.NewReader(out.Bytes())}).Recv()
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = got
	}
	if !reflect.DeepEqual(decoded[0], decoded[1]) || !reflect.DeepEqual(decoded[0], sent) {
		t.Fatalf("gob and vector-frame decodes differ:\ngob    %+v\nframed %+v", decoded[0], decoded[1])
	}
	caps := &Envelope{Type: MsgHello, WorkerID: HelloNewWorker, Codecs: grad.AdvertiseCodecs(), Caps: CapVectorFrame | 0x80}
	if err := caps.validate(); err != nil {
		t.Fatalf("hello naming capabilities (one of them unknown) rejected: %v", err)
	}
	if err := (&Envelope{Type: MsgGradient, Vector: vec, Caps: CapVectorFrame}).validate(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("capability advertisement on a gradient: %v, want ErrMalformed", err)
	}
}

// TestQuantCorruptionRejected sends hostile quantized frames — unknown codec
// bytes, payloads that do not decode, advertisements on the wrong message
// types — and requires a typed ErrMalformed for each, with the connection
// still usable afterwards where the stream stays in sync.
func TestQuantCorruptionRejected(t *testing.T) {
	goodQuant := func() ([]byte, int) {
		q, err := grad.AppendQuantized(nil, grad.CodecFP16, []float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return q, 3
	}
	q, n := goodQuant()

	hostile := []struct {
		name string
		env  *Envelope
	}{
		{"unknown codec byte", &Envelope{Type: MsgGradient, Codec: 99, Quant: q, QuantLen: n}},
		{"raw codec with quant payload", &Envelope{Type: MsgGradient, Codec: 0, Quant: q, QuantLen: n}},
		{"undecodable payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: q, QuantLen: n}},
		{"truncated payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: q[:5], QuantLen: n}},
		{"both payloads", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: q, QuantLen: n, Vector: []float64{1}}},
		{"zero quant length", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: q}},
		{"oversized quant payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecDelta), Quant: make([]byte, 200), QuantLen: 2}},
		{"advertisement on gradient", &Envelope{Type: MsgGradient, Vector: []float64{1}, Codecs: []byte{1}}},
		{"unknown advertised codec", &Envelope{Type: MsgHello, WorkerID: 1, Codecs: []byte{7}}},
		{"codec byte on params", &Envelope{Type: MsgParams, Vector: []float64{1}, Codec: byte(grad.CodecInt8)}},
	}
	for _, tc := range hostile {
		a, b := pipePair(t)
		if err := a.Send(tc.env); err != nil {
			t.Fatalf("%s: send failed locally: %v", tc.name, err)
		}
		if _, err := b.Recv(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: Recv = %v, want ErrMalformed", tc.name, err)
		}
		a.Close()
		b.Close()
	}

	// Batch-framed corruption: a quantized sub-frame with an unknown gradient
	// codec byte, and one whose payload fails to dequantize.
	valid, _ := ChunkGradientQuant(Envelope{WorkerID: 1}, []float64{1, 2, 3, 4}, 2, grad.CodecFP16)
	var payload bytes.Buffer
	if err := encodeBatch(&payload, valid); err != nil {
		t.Fatal(err)
	}
	raw := payload.Bytes()
	flip := func(mutate func(b []byte)) error {
		cp := append([]byte(nil), raw...)
		mutate(cp)
		_, err := decodeBatch(cp)
		return err
	}
	if err := flip(func(b []byte) { b[4+1] = 0x07 }); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown sub-frame gradient codec: %v, want ErrMalformed", err)
	}
	if err := flip(func(b []byte) {
		// Change the first sub-frame's declared element count so the fp16
		// payload no longer matches it.
		binary.LittleEndian.PutUint32(b[4+prefixLen(subFrameQuant)+4*6:], 9)
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

	frames, err := ChunkGradientQuant(Envelope{WorkerID: 1}, vec, 64, grad.CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
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
