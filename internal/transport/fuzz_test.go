package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"testing"
	"time"
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

// encodeFrames gob-encodes a sequence of envelopes into one byte stream, the
// exact bytes Send would put on the wire.
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

// FuzzAdoption feeds arbitrary bytes into Recv where an adoption-handshake
// frame is expected: every outcome must be a structurally valid envelope or
// an error (malformed frames typed ErrMalformed; truncated gob streams
// surface as transport errors) — never a panic, never an invalid adoption
// reaching the caller.
func FuzzAdoption(f *testing.F) {
	valid := encodeFrames(f,
		&Envelope{Type: MsgAdopt, RootGen: 2, Adopt: &Adoption{Group: 1, Epoch: 4, Members: []int{1, 2, 5}}},
		&Envelope{Type: MsgAdopt, Iter: 17, RootGen: 3, Adopt: &Adoption{Group: 1, Epoch: -1}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(encodeFrames(f, &Envelope{Type: MsgAdopt}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgAdopt, RootGen: -2, Adopt: &Adoption{}}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgAdopt, Adopt: &Adoption{Group: 0, Epoch: 0, Members: []int{9, 1}}}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgParams, Adopt: &Adoption{Group: 0, Epoch: 0}}))
	f.Add([]byte("not gob at all"))
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
			if env.Type == MsgAdopt {
				a := env.Adopt
				if a == nil || a.Group < 0 || a.Epoch < -1 || len(a.Members) > MaxAdoptMembers {
					t.Fatalf("Recv returned an invalid adoption: %+v", a)
				}
			}
		}
	})
}
