package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// vectorFlavours is one envelope per shape the vector frame carries.
func vectorFlavours(t testing.TB) []*Envelope {
	t.Helper()
	vec := make([]float64, 3000)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) * float64(i%17)
	}
	spans := []PhaseSpan{{Phase: "compute", Seconds: 0.042}, {Phase: "encode", Seconds: 0.002}}
	q, err := grad.AppendQuantized(nil, grad.CodecDelta, vec)
	if err != nil {
		t.Fatal(err)
	}
	return []*Envelope{
		{Type: MsgParams, Iter: 7, Epoch: 2, RootGen: 3, Trace: 0x8003_0002_0000_0007, Vector: vec},
		{Type: MsgParams, Iter: 8},
		{Type: MsgGradient, Iter: 7, Epoch: 2, WorkerID: 5, RootGen: 3, Vector: vec},
		{Type: MsgGradient, Iter: 7, WorkerID: 5, Trace: 0x8000_0000_0000_0007, Spans: spans, Vector: vec[:9]},
		{Type: MsgGradient, Iter: 7, WorkerID: 5, Chunk: 2, Chunks: 3, Spans: spans, Vector: vec[:1]},
		{Type: MsgGradient, Iter: 9, WorkerID: 1, Codec: byte(grad.CodecDelta), Quant: q, QuantLen: len(vec)},
	}
}

// TestVectorFrameRoundTrip is the frame's contract: every vector-carrying
// envelope — single or batched, traced or not, raw or quantized — arrives
// exactly as sent (a quantized payload as the vector its codec decodes to),
// and control frames interleave with vector frames on the one stream.
func TestVectorFrameRoundTrip(t *testing.T) {
	envs := vectorFlavours(t)
	want := make([]*Envelope, len(envs))
	for i, e := range envs {
		w := *e
		if len(w.Quant) > 0 {
			vec, err := grad.Dequantize(grad.Codec(w.Codec), w.Quant, w.QuantLen)
			if err != nil {
				t.Fatal(err)
			}
			w.Vector, w.Quant, w.QuantLen = vec, nil, 0
		}
		want[i] = &w
	}
	control := &Envelope{Type: MsgTelemetry, Iter: 7, WorkerID: 5, Telemetry: &Telemetry{ComputeSeconds: 0.5, Partitions: 2}}
	sender, receiver := pipePair(t)
	errc := make(chan error, 1)
	go func() {
		for _, e := range envs {
			if err := sender.Send(e); err != nil {
				errc <- err
				return
			}
			if err := sender.Send(control); err != nil {
				errc <- err
				return
			}
		}
		errc <- sender.SendBatch(envs)
	}()
	recv := func(i int, want *Envelope) {
		got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	for i, w := range want {
		recv(2*i, w)
		recv(2*i+1, control)
	}
	for i, w := range want {
		recv(2*len(want)+i, w)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestVectorFramePayloadGrows sends payloads longer than allocStep, whose
// receive buffers grow as the bytes arrive instead of being taken whole on
// the header's word: raw and quantized, they arrive exactly as sent.
func TestVectorFramePayloadGrows(t *testing.T) {
	vec := make([]float64, allocStep/8+allocStep/80)
	for i := range vec {
		vec[i] = rand.NormFloat64()
	}
	q, err := grad.AppendQuantized(nil, grad.CodecDelta, vec) // lossless, ≈ 9 B per random element
	if err != nil || len(q) <= allocStep {
		t.Fatalf("delta payload of %d B (err %v) does not exceed allocStep", len(q), err)
	}
	sender, receiver := pipePair(t)
	go func() {
		_ = sender.Send(&Envelope{Type: MsgParams, Iter: 1, Vector: vec})
		_ = sender.Send(&Envelope{Type: MsgGradient, Iter: 1, Codec: byte(grad.CodecDelta), Quant: q, QuantLen: len(vec)})
	}()
	for _, typ := range []MsgType{MsgParams, MsgGradient} {
		got, err := receiver.Recv()
		if err != nil || got.Type != typ {
			t.Fatalf("%v: %+v, %v", typ, got, err)
		}
		if !reflect.DeepEqual(got.Vector, vec) {
			t.Fatalf("%v: a %d-element payload arrived changed (%d elements)", typ, len(vec), len(got.Vector))
		}
		grad.PutBuffer(got.Vector)
	}
}

// TestBroadcastWireCost pins the point of the frame: a broadcast is one
// counted frame per connection costing 8 bytes per element plus a small
// header, however many connections it is written to.
func TestBroadcastWireCost(t *testing.T) {
	const dim = 10000
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = rand.NormFloat64()
	}
	a, aPeer := pipePair(t)
	b, bPeer := pipePair(t)
	env := &Envelope{Type: MsgParams, Iter: 1, Vector: vec}
	received := make(chan error, 2)
	for _, peer := range []*Conn{aPeer, bPeer} {
		go func(peer *Conn) {
			got, err := peer.Recv()
			if err == nil && !reflect.DeepEqual(got, env) {
				err = errors.New("broadcast arrived changed")
			}
			received <- err
		}(peer)
	}
	_, fo0, _, bo0, _, _ := Wire()
	for i, err := range Broadcast([]*Conn{a, nil, b}, env, time.Second) {
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	_, fo1, _, bo1, _, _ := Wire()
	if fo1-fo0 != 2 {
		t.Fatalf("two sends counted %d frames", fo1-fo0)
	}
	if per := (bo1 - bo0) / 2; per < 8*dim || per > 8*dim+64 {
		t.Fatalf("a %d-element params frame cost %d wire bytes", dim, per)
	}
	for i := 0; i < 2; i++ {
		if err := <-received; err != nil {
			t.Fatal(err)
		}
	}
}

// referenceFrame writes envs out as one whole wire frame from the layout in
// frame.go's header, sharing nothing with the encoder but AppendFloat64s: the
// bytes Send, SendBatch and Broadcast must put on the wire, however they
// gather them, and the frame builder for tests that need one as a byte string.
func referenceFrame(envs ...*Envelope) []byte {
	var body []byte
	for _, e := range envs {
		count, flags := len(e.Vector), byte(0)
		if len(e.Quant) > 0 {
			count = e.QuantLen
		}
		if e.Trace != 0 {
			flags = flagTrace
		}
		sub := []byte{subFrameVector, byte(e.Type), e.Codec, flags, byte(len(e.Spans))}
		for _, v := range []int{e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen, count} {
			sub = binary.LittleEndian.AppendUint32(sub, uint32(v))
		}
		if e.Trace != 0 {
			sub = binary.LittleEndian.AppendUint64(sub, e.Trace)
		}
		for _, sp := range e.Spans {
			sub = append(append(sub, byte(len(sp.Phase))), sp.Phase...)
			sub = binary.LittleEndian.AppendUint64(sub, math.Float64bits(sp.Seconds))
		}
		sub = AppendFloat64s(append(sub, e.Quant...), e.Vector)
		body = append(binary.BigEndian.AppendUint32(body, uint32(len(sub))), sub...)
	}
	frame := binary.BigEndian.AppendUint32([]byte{frameMarker}, uint32(len(body)))
	return append(frame, body...)
}

// hostileFrame is a wire frame whose single sub-frame is hdr-mutated: the
// test table edits a well-formed header and keeps the declared lengths
// honest, so the stream must stay in sync after the rejection.
func hostileFrame(mutate func(sub []byte) []byte) []byte {
	sub := referenceFrame(&Envelope{Type: MsgGradient, Iter: 1, WorkerID: 2, Vector: []float64{1, 2}})[wireHeaderLen+4:]
	sub = mutate(sub)
	frame := []byte{frameMarker}
	frame = wireOrder.AppendUint32(frame, uint32(4+len(sub)))
	frame = wireOrder.AppendUint32(frame, uint32(len(sub)))
	return append(frame, sub...)
}

// TestVectorFrameBoundBeforeAllocate is the robustness contract: every
// short, oversized, unknown-codec or span-section violation is a typed
// ErrMalformed, it is judged before a payload buffer is taken, and the
// stream stays in sync — the frame after the hostile one is delivered.
func TestVectorFrameBoundBeforeAllocate(t *testing.T) {
	setCount := func(n uint32) func([]byte) []byte {
		return func(sub []byte) []byte {
			binary.LittleEndian.PutUint32(sub[vectorHeaderLen-4:], n)
			return sub
		}
	}
	cases := map[string]func([]byte) []byte{
		"2^30 elements over a 16-byte body": setCount(1 << 30),
		"element count above the cap":       setCount(1<<30 + 1),
		"one element short":                 setCount(3),
		"header truncated":                  func(sub []byte) []byte { return sub[:vectorHeaderLen-1] },
		"payload truncated":                 func(sub []byte) []byte { return sub[:len(sub)-1] },
		"unknown codec":                     func(sub []byte) []byte { sub[2] = 0x63; return sub },
		"quantized 2^30 elements over 16 B": func(sub []byte) []byte { sub[2] = byte(grad.CodecDelta); return setCount(1 << 30)(sub) },
		"undecodable quantized payload":     func(sub []byte) []byte { sub[2] = byte(grad.CodecInt8); return sub },
		"quantized params":                  func(sub []byte) []byte { sub[1], sub[2] = byte(MsgParams), byte(grad.CodecFP16); return sub },
		"not a vector message":              func(sub []byte) []byte { sub[1] = byte(MsgTelemetry); return sub },
		"unknown flag":                      func(sub []byte) []byte { sub[3] = 0x80; return sub },
		"trace flagged, section missing":    func(sub []byte) []byte { sub[3] = flagTrace; return sub[:vectorHeaderLen+4] },
		"span count above the cap":          func(sub []byte) []byte { sub[4] = MaxSpans + 1; return sub },
		"span section truncated":            func(sub []byte) []byte { sub[4] = 1; return sub[:vectorHeaderLen+3] },
		"span name runs past the frame":     func(sub []byte) []byte { sub[4] = 1; sub[vectorHeaderLen] = 200; return sub },
		"empty span name":                   func(sub []byte) []byte { sub[4] = 1; sub[vectorHeaderLen] = 0; return sub },
		"chunk index out of range":          func(sub []byte) []byte { binary.LittleEndian.PutUint32(sub[5+4*3:], 9); return sub },
		"sub-frame kind 0x00":               func(sub []byte) []byte { sub[0] = 0x00; return sub },
		"kind 0x01 with a gradient header":  func(sub []byte) []byte { return append([]byte{0x01}, sub[5:]...) },
	}
	next := referenceFrame(&Envelope{Type: MsgParams, Iter: 9, Vector: []float64{4}})
	for name, mutate := range cases {
		stream := append(hostileFrame(mutate), next...)
		c := NewConn(&memConn{r: bytes.NewReader(stream)})
		if _, err := c.Recv(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: Recv = %v, want ErrMalformed", name, err)
		}
		got, err := c.Recv()
		if err != nil || got.Type != MsgParams || got.Iter != 9 {
			t.Fatalf("%s: stream out of sync after the rejection: %+v, %v", name, got, err)
		}
	}

	// The headline case allocates nothing dim-sized: a few hundred bytes of
	// error text, not the 8 GiB the header asks for.
	hostile := hostileFrame(cases["2^30 elements over a 16-byte body"])
	r := bytes.NewReader(hostile)
	c := NewConn(&memConn{r: r})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(hostile)
		if _, err := c.Recv(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Recv = %v, want ErrMalformed", err)
		}
	})
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / 51; allocs > 16 || perRun > 4096 {
		t.Fatalf("rejecting a 2^30-element header cost %.0f allocs, %d B per run", allocs, perRun)
	}

	// A lying outer length is the one thing the decoder cannot resync from;
	// it still must not take it at its word. A length no sender frames
	// fails the connection outright — not with ErrMalformed, which readers
	// take as "rejected, carry on" — before anything is sized from it or
	// skipped for it; under a smaller lie the short stream ends in EOF, not
	// in a buffer sized by the lie.
	tooLong := []byte{frameMarker, 0x80, 0, 0, 0, 0, 0, 0, 40, subFrameVector}
	if _, err := NewConn(&memConn{r: bytes.NewReader(tooLong)}).Recv(); err == nil || errors.Is(err, ErrMalformed) {
		t.Fatalf("frame body above the cap: %v, want a connection-fatal error", err)
	}
	lie := []byte{frameMarker, 0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 40, subFrameVector}
	if _, err := NewConn(&memConn{r: bytes.NewReader(lie)}).Recv(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream under a lying length: %v", err)
	}
	// The same lie told consistently — frame, sub-frame and element count all
	// declare a 1 GiB payload (then 128 MiB), and 16 bytes of it arrive (then
	// 1 KiB, which still ends inside the header peek, then 64 KiB, which ends
	// inside the payload read): the vector the payload is read into follows
	// the bytes received (one allocStep), not the header.
	for _, tc := range []struct{ declared, sent int }{{1 << 27, 16}, {16 << 20, 1 << 10}, {16 << 20, 64 << 10}} {
		consistent := hostileFrame(setCount(uint32(tc.declared)))
		consistent = append(consistent, make([]byte, tc.sent-16)...)
		wireOrder.PutUint32(consistent[1:], uint32(4+vectorHeaderLen+8*tc.declared))
		wireOrder.PutUint32(consistent[5:], uint32(vectorHeaderLen+8*tc.declared))
		runtime.ReadMemStats(&before)
		_, err := NewConn(&memConn{r: bytes.NewReader(consistent)}).Recv()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated stream under a consistent %d-element header: %v", tc.declared, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocStep+1<<20 {
			t.Fatalf("a header declaring %d elements over %d bytes made the decoder allocate %d MiB", tc.declared, tc.sent, grew>>20)
		}
	}
}

// FuzzVectorFrame feeds arbitrary bytes into Recv as a mix of gob envelopes
// (gob-encoded params and gradients, which Recv refuses, included) and binary
// wire frames: every outcome must be a fully decoded, structurally valid
// envelope or an error — never a panic, never a quantized payload or an
// oversized vector escaping the transport.
func FuzzVectorFrame(f *testing.F) {
	for _, e := range vectorFlavours(f) {
		f.Add(referenceFrame(e))
	}
	vec := []float64{1.5, -0.25, 3, 0, -7.125, 2, 2, 2}
	for _, codec := range []grad.Codec{grad.CodecRaw, grad.CodecFP16, grad.CodecInt8, grad.CodecTopK, grad.CodecDelta} {
		frames, err := ChunkGradientQuant(Envelope{WorkerID: 2, Iter: 5, Trace: 9, Spans: []PhaseSpan{{Phase: "compute", Seconds: 1}}}, vec, 3, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(referenceFrame(frames...))
		f.Add(encodeFrames(f, append(frames, &Envelope{Type: MsgTelemetry, Telemetry: &Telemetry{Partitions: 1}})...))
	}
	f.Add(hostileFrame(func(sub []byte) []byte {
		binary.LittleEndian.PutUint32(sub[vectorHeaderLen-4:], 1<<30)
		return sub
	}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgGradient, Codec: byte(grad.CodecDelta), Quant: []byte{0, 0}, QuantLen: 2}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgGradient, Codec: 99, Quant: []byte{1}, QuantLen: 1}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgHello, WorkerID: 1, Codecs: grad.AdvertiseCodecs()}))
	f.Add([]byte{frameMarker, 0, 0, 0, 3, 0x02, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&memConn{r: bytes.NewReader(data)})
		for {
			env, err := c.Recv()
			if err != nil {
				if errors.Is(err, ErrMalformed) {
					continue // rejected whole; the stream is still in sync
				}
				return // EOF, or a broken gob stream: the connection is over
			}
			if err := env.validate(); err != nil {
				t.Fatalf("Recv returned an invalid envelope: %v", err)
			}
			if len(env.Quant) != 0 || env.QuantLen != 0 {
				t.Fatalf("Recv leaked a quantized payload: %+v", env)
			}
			if len(env.Vector) > len(data) {
				t.Fatalf("Recv returned %d elements from %d bytes", len(env.Vector), len(data))
			}
		}
	})
}

// BenchmarkFloat64Codec is the float codec kernel pair at dim 1e5: one
// encode into a sized buffer plus one decode into a caller's vector. The
// ns/elem extra is the unit of the wire layer's budget line.
func BenchmarkFloat64Codec(b *testing.B) {
	const dim = 100_000
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = float64(i) * 0.5
	}
	buf := make([]byte, 0, 8*dim)
	out := make([]float64, dim)
	b.ReportAllocs()
	b.SetBytes(8 * dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFloat64s(buf[:0], vec)
		if _, err := ReadFloat64sInto(out, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dim, "ns/elem")
}

// benchVectorFrame measures one dim-1e5 vector frame end to end over a
// loopback connection: encode, write, read, decode into a pooled vector,
// release.
func benchVectorFrame(b *testing.B, env *Envelope) {
	sender, receiver := pipePair(b)
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			e, err := receiver.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			grad.PutBuffer(e.Vector)
		}
		recvErr <- nil
	}()
	b.ReportAllocs()
	b.ResetTimer()
	_, _, _, before, _, _ := Wire()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(env); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-recvErr; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	_, _, _, after, _, _ := Wire()
	b.ReportMetric(float64(after-before)/float64(b.N), "wire-B/op")
}

func benchVector() []float64 {
	vec := make([]float64, 100_000)
	for i := range vec {
		vec[i] = math.Sin(float64(i))
	}
	return vec
}

func BenchmarkVectorFrameParams(b *testing.B) {
	benchVectorFrame(b, &Envelope{Type: MsgParams, Iter: 1, Trace: 0x8000_0000_0000_0001, Vector: benchVector()})
}

func BenchmarkVectorFrameGradient(b *testing.B) {
	benchVectorFrame(b, &Envelope{Type: MsgGradient, Iter: 1, WorkerID: 1, Vector: benchVector()})
}

func BenchmarkVectorFrameInt8(b *testing.B) {
	vec := benchVector()
	q, err := grad.AppendQuantized(nil, grad.CodecInt8, vec)
	if err != nil {
		b.Fatal(err)
	}
	benchVectorFrame(b, &Envelope{Type: MsgGradient, Iter: 1, WorkerID: 1, Codec: byte(grad.CodecInt8), Quant: q, QuantLen: len(vec)})
}

func BenchmarkVectorFrameTraced(b *testing.B) {
	benchVectorFrame(b, &Envelope{Type: MsgGradient, Iter: 1, WorkerID: 1, Trace: 0x8000_0000_0000_0001, Vector: benchVector(),
		Spans: []PhaseSpan{{Phase: "fetch", Seconds: 0.001}, {Phase: "compute", Seconds: 0.042}, {Phase: "encode", Seconds: 0.002}, {Phase: "upload", Seconds: 0.003}}})
}
