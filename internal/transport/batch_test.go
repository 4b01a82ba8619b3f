package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// encodeBatch is the frame body SendBatch writes for envs, from the reference
// encoder (which judges nothing, so it also builds hostile bodies), and
// decodeBatch decodes a body the way Recv does.
func encodeBatch(envs ...*Envelope) []byte { return referenceFrame(envs...)[wireHeaderLen:] }

func decodeBatch(body []byte) ([]*Envelope, error) {
	return decodeFrames(NewConn(&memConn{r: bytes.NewReader(body)}).br, len(body))
}

// randomEnvelope draws one valid vector envelope of a random flavour.
func randomEnvelope(rng *rand.Rand) *Envelope {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	switch rng.Intn(4) {
	case 0: // unchunked gradient
		return &Envelope{Type: MsgGradient, Iter: rng.Intn(100), Epoch: rng.Intn(5),
			WorkerID: rng.Intn(8), Vector: vec(1 + rng.Intn(16))}
	case 1: // chunked gradient
		chunks := 2 + rng.Intn(4)
		return &Envelope{Type: MsgGradient, Iter: rng.Intn(100), Epoch: rng.Intn(5),
			WorkerID: rng.Intn(8), Chunk: rng.Intn(chunks), Chunks: chunks,
			Vector: vec(1 + rng.Intn(16))}
	case 2:
		return &Envelope{Type: MsgParams, Iter: rng.Intn(100), Epoch: rng.Intn(5),
			RootGen: rng.Intn(3), Trace: rng.Uint64(), Vector: vec(1 + rng.Intn(16))}
	default: // traced gradient
		return &Envelope{Type: MsgGradient, Iter: rng.Intn(100), WorkerID: rng.Intn(8), Trace: 1 + rng.Uint64()>>1,
			Spans: []PhaseSpan{{Phase: "compute", Seconds: rng.Float64()}}, Vector: vec(1 + rng.Intn(16))}
	}
}

// TestBatchRoundTripProperty is the batching contract: any sequence of
// sub-frames coalesced with SendBatch is observed by Recv exactly as if each
// envelope had been sent individually.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		envs := make([]*Envelope, n)
		for i := range envs {
			envs[i] = randomEnvelope(rng)
		}

		batched, batchedPeer := pipePair(t)
		plain, plainPeer := pipePair(t)
		errc := make(chan error, 2)
		go func() { errc <- batched.SendBatch(envs) }()
		go func() {
			for _, e := range envs {
				if err := plain.Send(e); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			got, err := batchedPeer.Recv()
			if err != nil {
				t.Fatalf("trial %d: batched recv %d: %v", trial, i, err)
			}
			want, err := plainPeer.Recv()
			if err != nil {
				t.Fatalf("trial %d: plain recv %d: %v", trial, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d frame %d:\nbatched %+v\nplain   %+v", trial, i, got, want)
			}
			if !reflect.DeepEqual(got, envs[i]) {
				t.Fatalf("trial %d frame %d: round-trip changed the envelope:\ngot  %+v\nsent %+v", trial, i, got, envs[i])
			}
		}
		if err := <-errc; err != nil {
			t.Fatalf("trial %d: send: %v", trial, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("trial %d: send: %v", trial, err)
		}
	}
}

func TestSendBatchEmptyAndSingle(t *testing.T) {
	a, b := pipePair(t)
	if err := a.SendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	one := &Envelope{Type: MsgParams, Iter: 3, Vector: []float64{1, 2}}
	go func() { _ = a.SendBatch([]*Envelope{one}) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("single-envelope batch mangled: %+v", got)
	}
}

// TestSendBatchRejectsNested: a batch holds vector envelopes only, so one
// carrying the retired batch number is refused whole and nothing is sent.
func TestSendBatchRejectsNested(t *testing.T) {
	var out bytes.Buffer
	a := NewConn(&memConn{r: bytes.NewReader(nil), w: &out})
	err := a.SendBatch([]*Envelope{
		{Type: MsgParams, Vector: []float64{1}},
		{Type: MsgType(8)},
	})
	if !errors.Is(err, ErrMalformed) || out.Len() != 0 {
		t.Fatalf("nested batch error = %v with %d bytes written, want ErrMalformed and none", err, out.Len())
	}
}

// TestTruncatedSubFrames rejects batches cut anywhere inside a sub-frame —
// the whole batch fails with ErrMalformed and the connection survives.
func TestTruncatedSubFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := encodeBatch(randomEnvelope(rng), randomEnvelope(rng), randomEnvelope(rng))
	// A cut exactly at a sub-frame boundary is a (valid) shorter batch; every
	// other cut lands inside a prefix or payload and must be rejected.
	boundary := map[int]bool{}
	for off := 0; off < len(full); {
		n := int(binary.BigEndian.Uint32(full[off : off+4]))
		off += 4 + n
		boundary[off] = true
	}
	for cut := 1; cut < len(full); cut++ {
		sub, err := decodeBatch(full[:cut])
		if boundary[cut] {
			if err != nil {
				t.Fatalf("boundary cut at %d/%d: unexpected err %v", cut, len(full), err)
			}
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut at %d/%d: err = %v (subs=%d), want ErrMalformed", cut, len(full), err, len(sub))
		}
	}

	// On a connection, under an honest frame length: the malformed batch is
	// dropped, the stream stays in sync and the next frame is delivered.
	cut := full[:len(full)-3]
	stream := append(wireOrder.AppendUint32([]byte{frameMarker}, uint32(len(cut))), cut...)
	stream = append(stream, referenceFrame(&Envelope{Type: MsgParams, Iter: 9, Vector: []float64{4}})...)
	b := NewConn(&memConn{r: bytes.NewReader(stream)})
	if _, err := b.Recv(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated batch recv err = %v, want ErrMalformed", err)
	}
	got, err := b.Recv()
	if err != nil || got.Type != MsgParams || got.Iter != 9 {
		t.Fatalf("connection poisoned after malformed batch: %+v, %v", got, err)
	}
}

func TestBatchRejectsMalformedSubFrameAndEmpty(t *testing.T) {
	// A structurally intact sub-frame that violates protocol invariants
	// (chunk index out of range) poisons the whole batch.
	bad := &Envelope{Type: MsgGradient, Vector: []float64{1}, Chunk: 5, Chunks: 2}
	if _, err := decodeBatch(encodeBatch(&Envelope{Type: MsgParams, Vector: []float64{1}}, bad)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("invalid sub-frame: err = %v, want ErrMalformed", err)
	}

	if _, err := decodeBatch(nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty batch: err = %v, want ErrMalformed", err)
	}

	// A frame with an empty body is refused, and the stream stays in sync.
	stream := append([]byte{frameMarker, 0, 0, 0, 0}, referenceFrame(&Envelope{Type: MsgParams, Iter: 9})...)
	b := NewConn(&memConn{r: bytes.NewReader(stream)})
	if _, err := b.Recv(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty frame recv err = %v, want ErrMalformed", err)
	}
	if got, err := b.Recv(); err != nil || got.Iter != 9 {
		t.Fatalf("stream out of sync after the empty frame: %+v, %v", got, err)
	}
}

func TestChunkJoinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 5, 64, 257} {
		for _, chunkLen := range []int{0, 1, 7, 64, 1000} {
			vec := make([]float64, dim)
			for i := range vec {
				vec[i] = rng.NormFloat64()
			}
			tmpl := Envelope{Iter: 4, Epoch: 2, WorkerID: 3}
			envs := ChunkGradient(tmpl, vec, chunkLen)
			if chunkLen > 0 && dim > chunkLen {
				want := (dim + chunkLen - 1) / chunkLen
				if len(envs) != want {
					t.Fatalf("dim=%d chunkLen=%d: %d chunks, want %d", dim, chunkLen, len(envs), want)
				}
			} else if len(envs) != 1 || envs[0].Chunks != 0 {
				t.Fatalf("dim=%d chunkLen=%d: expected one unchunked frame, got %d (chunks=%d)", dim, chunkLen, len(envs), envs[0].Chunks)
			}
			for _, e := range envs {
				if err := e.validate(); err != nil {
					t.Fatalf("chunk fails validation: %v", err)
				}
			}
			got, err := JoinChunks(nil, envs)
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			if !reflect.DeepEqual(got, vec) {
				t.Fatalf("dim=%d chunkLen=%d: join mismatch", dim, chunkLen)
			}
		}
	}
}

func TestJoinChunksRejectsBrokenSequences(t *testing.T) {
	vec := []float64{1, 2, 3, 4, 5}
	envs := ChunkGradient(Envelope{Iter: 1, WorkerID: 2}, vec, 2)
	cases := map[string][]*Envelope{
		"nil":           nil,
		"missing chunk": envs[:2],
		"reordered":     {envs[1], envs[0], envs[2]},
		"mixed iter": {envs[0], {Type: MsgGradient, Iter: 99, WorkerID: 2,
			Chunk: 1, Chunks: 3, Vector: []float64{9}}, envs[2]},
		"extra frame for unchunked": {
			{Type: MsgGradient, Vector: []float64{1}},
			{Type: MsgGradient, Vector: []float64{2}},
		},
	}
	for name, seq := range cases {
		if _, err := JoinChunks(nil, seq); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the frame-body decoder: it must
// never panic, and anything it accepts must be a valid sub-frame sequence
// whose re-encoding decodes and re-encodes to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	seed := encodeBatch(randomEnvelope(rng), randomEnvelope(rng))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200, 1, 2, 3})
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := decodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("non-ErrMalformed rejection: %v", err)
			}
			return
		}
		if len(subs) == 0 {
			t.Fatal("accepted batch with zero sub-frames")
		}
		for i, e := range subs {
			if err := e.validate(); err != nil {
				t.Fatalf("accepted invalid sub-frame %d: %v", i, err)
			}
			e.Codec = 0 // a quantized payload arrives decoded: it re-encodes raw
		}
		re := encodeBatch(subs...)
		again, err := decodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(encodeBatch(again...), re) {
			t.Fatal("decode/encode/decode not a fixed point")
		}
	})
}

// FuzzBatchRoundTrip drives the encode→decode pair with generated envelope
// sequences: the decoded sub-frames must equal the inputs exactly.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(int64(1), 3)
	f.Add(int64(42), 1)
	f.Add(int64(7), 12)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n <= 0 || n > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		envs := make([]*Envelope, n)
		for i := range envs {
			envs[i] = randomEnvelope(rng)
		}
		got, err := decodeBatch(encodeBatch(envs...))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, envs) {
			t.Fatal("round trip changed the sub-frame sequence")
		}
	})
}

// benchUplink measures a group master's per-iteration upload of a 64k-float
// gradient in 4k-element chunks over loopback TCP: 16 separate sends versus
// one coalesced batched write, with the payload optionally quantized by the
// given codec (the receiver dequantizes transparently inside Recv, so its
// decode cost is inside the measured loop).
func benchUplink(b *testing.B, batched bool, codec grad.Codec) {
	b.Helper()
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	done := make(chan *Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		done <- c
	}()
	sender, err := Dial(lis.Addr(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	receiver := <-done
	defer receiver.Close()

	vec := make([]float64, 64*1024)
	for i := range vec {
		vec[i] = float64(i)
	}
	frames, err := ChunkGradientQuant(Envelope{WorkerID: 1}, vec, 4*1024, codec)
	if err != nil {
		b.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		joined := make([]float64, 0, len(vec))
		var chunk []*Envelope
		for i := 0; i < b.N*len(frames); i++ {
			e, err := receiver.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			chunk = append(chunk, e)
			if e.Chunks != 0 && e.Chunk != e.Chunks-1 {
				continue
			}
			var jerr error
			joined, jerr = JoinChunks(joined, chunk)
			chunk = chunk[:0]
			if jerr != nil {
				recvErr <- jerr
				return
			}
		}
		recvErr <- nil
	}()

	b.ResetTimer()
	b.ReportAllocs()
	_, _, _, bytesBefore, _, _ := Wire()
	for i := 0; i < b.N; i++ {
		if batched {
			if err := sender.SendBatch(frames); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, f := range frames {
				if err := sender.Send(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if err := <-recvErr; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	// Wire bytes per uploaded gradient, measured at the socket boundary by
	// the process-wide transport counters (the receiver goroutine has fully
	// drained, so every sent byte is accounted for).
	_, _, _, bytesAfter, _, _ := Wire()
	b.ReportMetric(float64(bytesAfter-bytesBefore)/float64(b.N), "wire-B/iter")
}

func BenchmarkBatchedUplink(b *testing.B)     { benchUplink(b, true, grad.CodecRaw) }
func BenchmarkUnbatchedUplink(b *testing.B)   { benchUplink(b, false, grad.CodecRaw) }
func BenchmarkBatchedUplinkInt8(b *testing.B) { benchUplink(b, true, grad.CodecInt8) }
func BenchmarkBatchedUplinkFP16(b *testing.B) { benchUplink(b, true, grad.CodecFP16) }

// BenchmarkBatchedUplinkTraced is BenchmarkBatchedUplink with the trace
// context stamped on the upload: the trace ID plus a full set of echoed
// member phase spans riding the final chunk, exactly what every worker sends
// per iteration when telemetry is live. Its ns/op and wire-B/iter deltas
// against the untraced bench are the whole cost of trace propagation.
func BenchmarkBatchedUplinkTraced(b *testing.B) {
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	done := make(chan *Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		done <- c
	}()
	sender, err := Dial(lis.Addr(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	receiver := <-done
	defer receiver.Close()

	vec := make([]float64, 64*1024)
	for i := range vec {
		vec[i] = float64(i)
	}
	tmpl := Envelope{
		WorkerID: 1,
		Trace:    0x0002_0001_0000_002a,
		Spans: []PhaseSpan{
			{Phase: "fetch", Seconds: 0.001},
			{Phase: "compute", Seconds: 0.042},
			{Phase: "encode", Seconds: 0.002},
			{Phase: "upload", Seconds: 0.003},
		},
	}
	frames, err := ChunkGradientQuant(tmpl, vec, 4*1024, grad.CodecRaw)
	if err != nil {
		b.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		joined := make([]float64, 0, len(vec))
		var chunk []*Envelope
		for i := 0; i < b.N*len(frames); i++ {
			e, err := receiver.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			chunk = append(chunk, e)
			if e.Chunks != 0 && e.Chunk != e.Chunks-1 {
				continue
			}
			if e.Trace == 0 || len(e.Spans) != len(tmpl.Spans) {
				recvErr <- fmt.Errorf("trace context lost on the final chunk: trace %#x, %d spans", e.Trace, len(e.Spans))
				return
			}
			var jerr error
			joined, jerr = JoinChunks(joined, chunk)
			chunk = chunk[:0]
			if jerr != nil {
				recvErr <- jerr
				return
			}
		}
		recvErr <- nil
	}()

	b.ResetTimer()
	b.ReportAllocs()
	_, _, _, bytesBefore, _, _ := Wire()
	for i := 0; i < b.N; i++ {
		if err := sender.SendBatch(frames); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-recvErr; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	_, _, _, bytesAfter, _, _ := Wire()
	b.ReportMetric(float64(bytesAfter-bytesBefore)/float64(b.N), "wire-B/iter")
}
