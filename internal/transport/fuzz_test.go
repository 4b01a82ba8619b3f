package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
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

// encodeFrames gob-encodes a sequence of envelopes into one byte stream: the
// exact bytes Send puts on the wire for control envelopes, and for params and
// gradients the encoding Recv refuses.
func encodeFrames(t testing.TB, envs ...*Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, e := range envs {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzControlEnvelope feeds arbitrary bytes into Recv where a gob control
// envelope is expected: every outcome must be a structurally valid envelope
// or an error (malformed frames typed ErrMalformed; truncated gob streams
// surface as transport errors) — never a panic, never an invalid envelope
// reaching the caller.
func FuzzControlEnvelope(f *testing.F) {
	valid := encodeFrames(f,
		&Envelope{Type: MsgHello, WorkerID: HelloNewWorker},
		&Envelope{Type: MsgHello, WorkerID: 3, Codec: byte(grad.CodecInt8)},
		&Envelope{Type: MsgReassign, Epoch: 2, Assign: &Assignment{WorkerID: 1, Partitions: []int{0, 3}, RowCoeffs: []float64{1, -0.5}, K: 4, S: 1}},
		&Envelope{Type: MsgTelemetry, Iter: 7, Epoch: 2, WorkerID: 3, Telemetry: &Telemetry{Partitions: 2, ComputeSeconds: 0.01},
			Spans: []PhaseSpan{{Phase: "compute", Seconds: 0.01}}},
		&Envelope{Type: MsgPartitionReq, Part: 5},
		&Envelope{Type: MsgShutdown})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// The retired adoption number must come back malformed, and the stream
	// stays in sync behind it.
	retired := encodeFrames(f, &Envelope{Type: MsgType(9)}, &Envelope{Type: MsgShutdown})
	c := NewConn(&memConn{r: bytes.NewReader(retired)})
	if _, err := c.Recv(); !errors.Is(err, ErrMalformed) {
		f.Fatalf("retired adopt number: Recv err = %v, want ErrMalformed", err)
	}
	if env, err := c.Recv(); err != nil || env.Type != MsgShutdown {
		f.Fatalf("frame after the retired adopt number = %+v, err %v", env, err)
	}
	f.Add(retired)
	f.Add(encodeFrames(f, &Envelope{Type: MsgReassign}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgHello, RootGen: -2, Codec: 99}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgTelemetry, Telemetry: &Telemetry{Partitions: -1}}))
	f.Add([]byte("not gob at all"))
	f.Add(encodeFrames(f, &Envelope{Type: MsgGradient, WorkerID: 1, Vector: []float64{1, 2}},
		&Envelope{Type: MsgHello, WorkerID: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&memConn{r: bytes.NewReader(data)})
		for {
			env, err := c.Recv()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				// Anything else must be a typed rejection or a gob decode
				// error — both leave the caller a clean error path. Keep
				// scanning only on malformed frames (the stream is still in
				// sync); a broken gob stream ends the connection.
				if errors.Is(err, ErrMalformed) {
					continue
				}
				return
			}
			if err := env.validate(); err != nil {
				t.Fatalf("Recv returned an invalid envelope: %v", err)
			}
		}
	})
}
