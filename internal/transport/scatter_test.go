package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"testing/iotest"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// awkwardFloats is n elements with every bit pattern a float pass could
// mangle up front — both zeros, NaNs with payload bits, infinities, a
// denormal — and plain values behind them.
func awkwardFloats(n int) []float64 {
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) * float64(i%17)
	}
	copy(vec, []float64{
		math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001), math.NaN(),
	})
	return vec
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rawPair is a sender over loopback TCP — the writev path — and the bare
// socket it writes to.
func rawPair(t *testing.T) (*Conn, *net.TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sender, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close(); peer.Close() })
	return sender, peer.(*net.TCPConn)
}

// TestScatterWriteBytes pins the wire format under the gathered write: what
// Send, SendBatch and Broadcast put on a socket (one writev) and on a
// net.Conn that is not one (a Write per piece) is the reference encoder's
// frame byte for byte, and the wire counters count exactly those bytes, one
// frame per call and one batch per multi-frame call.
func TestScatterWriteBytes(t *testing.T) {
	vec := awkwardFloats(5000)
	spans := []PhaseSpan{{Phase: "fetch", Seconds: 0.001}, {Phase: "compute", Seconds: 0.042}, {Phase: "encode", Seconds: 0.002}, {Phase: "upload", Seconds: 0.003}}
	traced := Envelope{Iter: 7, Epoch: 2, WorkerID: 5, RootGen: 3, Trace: 0x8003_0002_0000_0007, Spans: spans}
	quant, err := ChunkGradientQuant(Envelope{Iter: 8, WorkerID: 5}, vec, 2000, grad.CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]*Envelope{
		"two chunks":                    ChunkGradient(Envelope{Iter: 7, WorkerID: 5}, vec, 2500),
		"five chunks, the last traced":  ChunkGradient(traced, vec, 1000),
		"quantized between raw":         {{Type: MsgGradient, Iter: 8, Vector: vec[:3]}, quant[0], quant[1], {Type: MsgGradient, Iter: 8, Vector: vec[3:9]}},
		"empty vector first":            {{Type: MsgParams, Iter: 8}, {Type: MsgGradient, Iter: 8, Vector: vec[:1]}},
		"empty vector last":             {{Type: MsgGradient, Iter: 8, Vector: vec[:1]}, {Type: MsgParams, Iter: 8}},
		"params":                        {{Type: MsgParams, Iter: 7, RootGen: 3, Trace: 0x8003_0000_0000_0007, Vector: vec}},
		"traced unchunked gradient":     ChunkGradient(traced, vec, 0),
		"quantized alone":               quant[2:],
		"empty params":                  {{Type: MsgParams, Iter: 8}},
		"single-element traced uplinks": ChunkGradient(traced, vec[:2], 1),
	}
	tcp, peer := rawPair(t)
	var mem bytes.Buffer
	inMemory := NewConn(&memConn{r: bytes.NewReader(nil), w: &mem})
	for name, envs := range cases {
		want := referenceFrame(envs...)
		send := func(c *Conn) error { return c.SendBatch(envs) }
		if len(envs) == 1 && envs[0].Type == MsgParams {
			send = func(c *Conn) error { return Broadcast([]*Conn{nil, c}, envs[0], time.Second)[1] }
		}
		for i := 0; i < 2; i++ { // the second pass writes through a used gather list
			_, f0, _, b0, batches0, _ := Wire()
			sent := make(chan error, 1)
			go func() { sent <- send(tcp) }()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(peer, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := <-sent; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the socket received\n%x\nthe reference encoder writes\n%x", name, got[:min(len(got), 256)], want[:min(len(want), 256)])
			}
			mem.Reset()
			if err := send(inMemory); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(mem.Bytes(), want) {
				t.Fatalf("%s: a net.Conn without writev received a different frame", name)
			}
			_, f1, _, b1, batches1, _ := Wire()
			wantBatches := uint64(0)
			if len(envs) > 1 {
				wantBatches = 2
			}
			if f1-f0 != 2 || b1-b0 != uint64(2*len(want)) || batches1-batches0 != wantBatches {
				t.Fatalf("%s: two sends of %d bytes counted %d frames, %d bytes, %d batches", name, len(want), f1-f0, b1-b0, batches1-batches0)
			}
		}
	}
	// Nothing is left between frames: the peer sees no stray byte.
	_ = peer.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := peer.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%d stray bytes after the last frame (%v)", n, err)
	}
}

// sevenByteReader delivers at most seven bytes a read: every float arrives
// split.
type sevenByteReader struct{ r io.Reader }

func (s sevenByteReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 7)]) }

// TestVectorFrameSplitReads delivers one frame in awkward pieces — a byte at
// a time, half of every request, cuts inside every float: the payload lands
// in the vector bit for bit, whether it came through the read buffer or past
// it.
func TestVectorFrameSplitReads(t *testing.T) {
	vec := awkwardFloats(3*readBufSize/8 + 5) // longer than the read buffer: the direct read too
	envs := ChunkGradient(Envelope{Iter: 7, WorkerID: 5, Trace: 9, Spans: []PhaseSpan{{Phase: "compute", Seconds: 1}}}, vec, len(vec)-3)
	frame := append(referenceFrame(envs...), referenceFrame(&Envelope{Type: MsgParams, Iter: 9, Vector: vec[:8]})...)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":      func(r io.Reader) io.Reader { return r },
		"one byte":   iotest.OneByteReader,
		"half":       iotest.HalfReader,
		"data + EOF": iotest.DataErrReader,
		"mid-float":  func(r io.Reader) io.Reader { return sevenByteReader{r} },
	}
	for name, wrap := range readers {
		c := NewConn(&memConn{r: wrap(bytes.NewReader(frame))})
		for i, want := range [][]float64{vec[:len(vec)-3], vec[len(vec)-3:], vec[:8]} {
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("%s: sub-frame %d: %v", name, i, err)
			}
			if !sameBits(got.Vector, want) {
				t.Fatalf("%s: sub-frame %d arrived changed", name, i)
			}
			grad.PutBuffer(got.Vector)
		}
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the last frame: %v", name, err)
		}
	}
}

// pooled reports whether the gradient pool's next buffer of len(mark)
// elements is mark itself, which the caller put there before the decoder ran:
// the decoder took it for its payload and gave it back.
func pooled(mark []float64) bool {
	got := grad.GetBuffer(len(mark))
	return &got[0] == &mark[0]
}

// TestVectorFrameTruncatedPayload cuts a payload short both ways a peer can.
// Inside an honest frame — the sub-frame ends mid-vector — it is the typed
// error, judged before the payload is read; the vector already read for the
// sub-frame before it goes back to the pool, and the bytes the decoder read
// past the read buffer are accounted for, so the next frame is delivered. On
// a stream that ends mid-vector it is the stream's error, and the half-filled
// vector goes back to the pool.
func TestVectorFrameTruncatedPayload(t *testing.T) {
	const n = 2*readBufSize/8 + 11 // an element count no other test leaves in the pool
	vec := awkwardFloats(n)
	whole := &Envelope{Type: MsgGradient, Iter: 3, WorkerID: 1, Chunk: 0, Chunks: 2, Vector: vec}
	short := &Envelope{Type: MsgGradient, Iter: 3, WorkerID: 1, Chunk: 1, Chunks: 2, Vector: vec[:100]}
	frame := referenceFrame(whole, short)
	frame = frame[:len(frame)-13]
	wireOrder.PutUint32(frame[1:], uint32(len(frame)-wireHeaderLen))
	lastSub := wireHeaderLen + 4 + vectorHeaderLen + 8*n
	wireOrder.PutUint32(frame[lastSub:], uint32(len(frame)-lastSub-4))
	next := referenceFrame(&Envelope{Type: MsgParams, Iter: 9, Vector: vec[:8]})

	mark := make([]float64, n)
	grad.PutBuffer(mark)
	c := NewConn(&memConn{r: iotest.HalfReader(bytes.NewReader(append(frame, next...)))})
	if _, err := c.Recv(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("sub-frame cut mid-vector: %v, want ErrMalformed", err)
	}
	if !sameBits(mark, vec) || !pooled(mark) {
		t.Fatal("the vector read before the rejected sub-frame did not go back to the pool")
	}
	if got, err := c.Recv(); err != nil || got.Iter != 9 || !sameBits(got.Vector, vec[:8]) {
		t.Fatalf("stream out of sync after the rejection: %+v, %v", got, err)
	}

	grad.PutBuffer(mark)
	stream := referenceFrame(whole)
	c = NewConn(&memConn{r: bytes.NewReader(stream[:len(stream)-8*n/2-3])})
	if _, err := c.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrMalformed) {
		t.Fatalf("stream cut mid-vector: %v, want io.ErrUnexpectedEOF", err)
	}
	if !pooled(mark) {
		t.Fatal("the half-read vector did not go back to the pool")
	}
}

// TestBroadcastStalledPeer broadcasts one vector to eight connections, one of
// which never reads: its write runs into the deadline and errs names it alone,
// while the other seven — sharing the stalled one's header bytes and vector
// memory, each through a gather list of its own — receive the frame intact.
func TestBroadcastStalledPeer(t *testing.T) {
	const peers, stalled = 8, 3
	vec := awkwardFloats(1 << 18) // 2 MiB: far past what the shrunken socket buffers absorb
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make([]*Conn, peers)
	received := make(chan error, peers)
	for i := range conns {
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		defer peer.Close()
		if i == stalled {
			_ = raw.(*net.TCPConn).SetWriteBuffer(4 << 10)
			_ = peer.(*net.TCPConn).SetReadBuffer(4 << 10)
		}
		conns[i] = NewConn(raw)
		if i == stalled {
			continue
		}
		go func(c *Conn) {
			got, err := c.Recv()
			if err == nil && (got.Type != MsgParams || got.Iter != 4 || !sameBits(got.Vector, vec)) {
				err = errors.New("broadcast arrived changed")
			}
			received <- err
		}(NewConn(peer))
	}
	errs := Broadcast(conns, &Envelope{Type: MsgParams, Iter: 4, Vector: vec}, 200*time.Millisecond)
	for i, err := range errs {
		if i == stalled && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("the stalled connection's send: %v, want a deadline error", err)
		}
		if i != stalled && err != nil {
			t.Errorf("connection %d: %v", i, err)
		}
	}
	for i := 0; i < peers-1; i++ {
		if err := <-received; err != nil {
			t.Error(err)
		}
	}
}

// TestSwapFloatBytes checks the big-endian host's receive fix-up on any host:
// swapping turns each element's little-endian bytes into its big-endian ones
// and back, and leaves a ragged tail alone.
func TestSwapFloatBytes(t *testing.T) {
	vec := awkwardFloats(9)
	b := append(AppendFloat64s(nil, vec), 0xaa, 0xbb, 0xcc)
	swapFloatBytes(b)
	for i, v := range vec {
		if got := binary.BigEndian.Uint64(b[8*i:]); got != math.Float64bits(v) {
			t.Fatalf("element %d: %#x, want %#x", i, got, math.Float64bits(v))
		}
	}
	if !bytes.Equal(b[8*len(vec):], []byte{0xaa, 0xbb, 0xcc}) {
		t.Fatalf("tail rewritten: %x", b[8*len(vec):])
	}
	swapFloatBytes(b)
	if !bytes.Equal(b[:8*len(vec)], AppendFloat64s(nil, vec)) {
		t.Fatal("swapping twice is not the identity")
	}
	// The view is the vector: on the host this runs on, its bytes in host
	// order, and writes through it land in the vector.
	view := floatBytes(vec)
	if got := binary.NativeEndian.Uint64(view[8:]); len(view) != 8*len(vec) || got != math.Float64bits(vec[1]) {
		t.Fatalf("view of %d elements has %d bytes, element 1 reads %#x", len(vec), len(view), got)
	}
	binary.NativeEndian.PutUint64(view[8:], math.Float64bits(-2.5))
	if vec[1] != -2.5 || floatBytes(nil) != nil {
		t.Fatalf("write through the view read back %v; empty view %v", vec[1], floatBytes(nil))
	}
}
