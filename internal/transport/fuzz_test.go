package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// memConn adapts a reader to net.Conn so Recv can be driven from fuzz data
// without sockets; writes are captured in w, or vanish without one.
type memConn struct {
	r io.Reader
	w *bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error) {
	if c.w != nil {
		return c.w.Write(p)
	}
	return len(p), nil
}
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzFrame feeds arbitrary bytes into Recv, the one decoder of the wire:
// every outcome must be a fully decoded, structurally valid envelope or an
// error (malformed frames typed ErrMalformed, with the stream still in sync;
// a stream that does not open a frame, or ends early, fails the connection)
// — never a panic, never a quantized payload or an oversized vector escaping
// the transport. What Recv accepts must re-encode to a frame that decodes and
// re-encodes to the same bytes.
func FuzzFrame(f *testing.F) {
	frames := func(envs ...*Envelope) []byte {
		var b []byte
		for _, e := range envs {
			b = append(b, referenceFrame(e)...)
		}
		return b
	}
	for _, e := range vectorFlavours(f) {
		f.Add(referenceFrame(e))
	}
	vec := []float64{1.5, -0.25, 3, 0, -7.125, 2, 2, 2}
	for _, codec := range []grad.Codec{grad.CodecRaw, grad.CodecInt8} {
		for _, chunkLen := range []int{3, len(vec)} { // batched sub-frames, then one frame
			chunks := quantChunks(f, Envelope{WorkerID: 2, Iter: 5, Trace: 9, Spans: []PhaseSpan{{Phase: "compute", Seconds: 1}}}, vec, chunkLen, codec)
			f.Add(referenceFrame(chunks...))
			f.Add(frames(append(chunks, &Envelope{Type: MsgTelemetry, Telemetry: &Telemetry{Partitions: 1}})...))
		}
	}
	f.Add(hostileFrame(func(sub []byte) []byte {
		binary.LittleEndian.PutUint32(sub[vectorHeaderLen-4:], 1<<30)
		return sub
	}))
	// An int8 sub-frame one byte over the reader's 5 B-per-element bound.
	f.Add(hostileFrame(func(sub []byte) []byte {
		sub[2] = byte(grad.CodecInt8)
		binary.LittleEndian.PutUint32(sub[vectorHeaderLen-4:], 3)
		return sub
	}))
	f.Add(referenceFrame(&Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: []byte{0, 0}, QuantLen: 2}))
	f.Add(referenceFrame(&Envelope{Type: MsgGradient, Codec: 99, Quant: []byte{1}, QuantLen: 1}))
	f.Add(referenceFrame(&Envelope{Type: MsgHello, WorkerID: 1, Codec: byte(grad.CodecInt8)}))
	f.Add([]byte{frameMarker, 0, 0, 0, 3, 0x02, 0xff, 0x00})

	valid := frames(
		&Envelope{Type: MsgHello, WorkerID: HelloNewWorker},
		&Envelope{Type: MsgHello, WorkerID: 3, Codec: byte(grad.CodecInt8)},
		&Envelope{Type: MsgReassign, Epoch: 2, Assign: &Assignment{WorkerID: 1, Partitions: []int{0, 3}, RowCoeffs: []float64{1, -0.5}, K: 4, S: 1}},
		&Envelope{Type: MsgTelemetry, Iter: 7, Epoch: 2, WorkerID: 3, Telemetry: &Telemetry{Partitions: 2, ComputeSeconds: 0.01},
			Spans: []PhaseSpan{{Phase: "compute", Seconds: 0.01}}},
		&Envelope{Type: MsgPartitionReq, Part: 5},
		&Envelope{Type: MsgShutdown})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// A retired number must come back malformed, and the stream stays in
	// sync behind it.
	retired := func(n int) []byte {
		stream := frames(&Envelope{Type: MsgType(n)}, &Envelope{Type: MsgShutdown})
		c := NewConn(&memConn{r: bytes.NewReader(stream)})
		if _, err := c.Recv(); !errors.Is(err, ErrMalformed) {
			f.Fatalf("retired number %d: Recv err = %v, want ErrMalformed", n, err)
		}
		if env, err := c.Recv(); err != nil || env.Type != MsgShutdown {
			f.Fatalf("frame after the retired number %d = %+v, err %v", n, env, err)
		}
		return stream
	}
	f.Add(retired(9))
	f.Add(referenceFrame(&Envelope{Type: MsgReassign}))
	f.Add(referenceFrame(&Envelope{Type: MsgHello, RootGen: -2, Codec: 99}))
	f.Add(referenceFrame(&Envelope{Type: MsgTelemetry, Telemetry: &Telemetry{Partitions: -1}}))
	f.Add([]byte("not gob at all"))
	f.Add(frames(&Envelope{Type: MsgGradient, WorkerID: 1, Vector: []float64{1, 2}}, &Envelope{Type: MsgHello, WorkerID: 2}))

	rng := rand.New(rand.NewSource(19))
	batch := referenceFrame(randomEnvelope(rng), randomEnvelope(rng))
	f.Add(batch)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200, 1, 2, 3})
	cut := batch[wireHeaderLen : wireHeaderLen+(len(batch)-wireHeaderLen)/2]
	f.Add(append(wireOrder.AppendUint32([]byte{frameMarker}, uint32(len(cut))), cut...))
	f.Add(retired(2))
	f.Add(retired(8))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&memConn{r: bytes.NewReader(data)})
		for {
			env, err := c.Recv()
			if err != nil {
				if errors.Is(err, ErrMalformed) {
					continue // rejected whole; the stream is still in sync
				}
				return // EOF, or a lost stream: the connection is over
			}
			if err := env.validate(); err != nil {
				t.Fatalf("Recv returned an invalid envelope: %v", err)
			}
			if len(env.Quant) != 0 || env.QuantLen != 0 {
				t.Fatalf("Recv leaked a quantized payload: %+v", env)
			}
			if len(env.Vector) > len(data) || len(env.Blob) > len(data) {
				t.Fatalf("Recv returned %d elements and %d blob bytes from %d bytes", len(env.Vector), len(env.Blob), len(data))
			}
			if env.Type == MsgGradient {
				env.Codec = 0 // a quantized payload arrives decoded: it re-encodes raw
			}
			re := referenceFrame(env)
			again, err := NewConn(&memConn{r: bytes.NewReader(re)}).Recv()
			if err != nil {
				t.Fatalf("re-decode of %+v failed: %v", env, err)
			}
			if !bytes.Equal(referenceFrame(again), re) {
				t.Fatal("decode/encode/decode not a fixed point")
			}
		}
	})
}
