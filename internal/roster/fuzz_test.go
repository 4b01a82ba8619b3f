// Fuzz coverage for the join/rejoin handshake decode path: whatever bytes a
// peer opens the connection with — truncated frames, duplicated frames,
// valid frames of the wrong type, garbage — ReadHello must either return a
// well-formed hello or an error wrapping transport.ErrMalformed. It must
// never panic, and a successful read must never hand the engine an invalid
// identity (the desync that would corrupt the roster).
//
// CI runs a short -fuzz smoke over this target (make fuzz-smoke); the seed
// corpus alone also runs as a regular test.
package roster_test

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// memConn is a net.Conn over a byte slice: the fuzzer's stand-in for a peer
// that wrote data and went away. Writes are captured in w, or vanish without
// one; deadlines are no-ops.
type memConn struct {
	r *bytes.Reader
	w *bytes.Buffer
}

func (c memConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c memConn) Write(p []byte) (int, error) {
	if c.w != nil {
		return c.w.Write(p)
	}
	return len(p), nil
}
func (c memConn) Close() error                     { return nil }
func (c memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c memConn) SetDeadline(time.Time) error      { return nil }
func (c memConn) SetReadDeadline(time.Time) error  { return nil }
func (c memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// encodeFrames sends envelopes back to back on one stream with
// transport.Conn.Send and returns the bytes it wrote.
func encodeFrames(envs ...*transport.Envelope) []byte {
	var buf bytes.Buffer
	conn := transport.NewConn(memConn{r: bytes.NewReader(nil), w: &buf})
	for _, env := range envs {
		if err := conn.Send(env); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func FuzzReadHello(f *testing.F) {
	valid := encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker})
	resume := encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: 7})
	f.Add(valid)
	f.Add(resume)
	// Truncated frame: the sender died mid-write.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	// Duplicated frame: the stream replays its own prefix.
	f.Add(append(append([]byte{}, valid...), valid...))
	// Two well-formed hellos on one stream (a legitimate double hello).
	f.Add(encodeFrames(
		&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker},
		&transport.Envelope{Type: transport.MsgHello, WorkerID: 3},
	))
	// Well-formed frames of the wrong type or shape.
	f.Add(encodeFrames(&transport.Envelope{Type: transport.MsgParams, Vector: []float64{1, 2}}))
	f.Add(encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: 0}))
	f.Add(encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: 4, Epoch: 9}))
	f.Add([]byte{})
	f.Add([]byte("not gob at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		conn := transport.NewConn(memConn{r: bytes.NewReader(data)})
		// Read a few hellos off the same stream: a malformed second frame
		// must fail typed, not desync into a bogus success.
		for i := 0; i < 4; i++ {
			env, err := roster.ReadHello(conn)
			if err != nil {
				if !errors.Is(err, transport.ErrMalformed) {
					t.Fatalf("handshake error not typed ErrMalformed: %v", err)
				}
				return
			}
			if env.Type != transport.MsgHello {
				t.Fatalf("ReadHello accepted a %v frame", env.Type)
			}
			if env.WorkerID < transport.HelloNewWorker || env.WorkerID == 0 {
				t.Fatalf("ReadHello accepted invalid member id %d", env.WorkerID)
			}
			if env.Assign != nil || env.Telemetry != nil || len(env.Vector) != 0 {
				t.Fatalf("ReadHello accepted a hello with payload: %+v", env)
			}
		}
	})
}

// olderBuildHello is the start of the hello an older build opened its
// connection with: a gob stream, whose first message is the Envelope type
// definition, length-prefixed.
var olderBuildHello = []byte{
	0xff, 0xce, 0x7f, 0x03, 0x01, 0x01, 0x08, 'E', 'n', 'v', 'e', 'l', 'o', 'p', 'e',
	0x01, 0xff, 0x80, 0x00, 0x01, 0x11, 0x01, 0x04, 'T',
}

// TestOlderBuildHelloRefused: a peer that does not open with a frame has lost
// the stream for good. Recv fails it with an error that does not promise a
// stream in sync (not ErrMalformed), and the handshake reports it as a
// malformed hello, so the engine drops the connection.
func TestOlderBuildHelloRefused(t *testing.T) {
	_, err := transport.NewConn(memConn{r: bytes.NewReader(olderBuildHello)}).Recv()
	if err == nil || errors.Is(err, transport.ErrMalformed) {
		t.Fatalf("Recv of an older build's hello: %v, want an error that is not ErrMalformed", err)
	}
	_, err = roster.ReadHello(transport.NewConn(memConn{r: bytes.NewReader(olderBuildHello)}))
	if !errors.Is(err, transport.ErrMalformed) {
		t.Fatalf("ReadHello of an older build's hello: %v, want ErrMalformed", err)
	}
}
