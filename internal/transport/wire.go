package transport

import (
	"net"
	"sync/atomic"

	"github.com/hetgc/hetgc/internal/grad"
)

// Process-wide wire counters, always on: frame and byte counts are a
// handful of atomic adds per message, cheap enough to keep unconditional.
// The telemetry plane reads them at scrape time via Wire (bound with
// obs.Metrics.BindWire), and the uplink benchmarks use them to report
// bytes-per-iteration. transport deliberately does not import obs — the
// counters are plain atomics so the package stays a leaf.
var wire struct {
	framesIn  atomic.Uint64
	framesOut atomic.Uint64
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	batches   atomic.Uint64
	malformed atomic.Uint64
}

// Wire snapshots the process-wide transport counters: frames received and
// sent, raw bytes read and written (counted at the net.Conn boundary, so
// frame headers are included), batch frames sent, and frames rejected as
// malformed. Counters are cumulative for the process lifetime.
func Wire() (framesIn, framesOut, bytesIn, bytesOut, batches, malformed uint64) {
	return wire.framesIn.Load(), wire.framesOut.Load(),
		wire.bytesIn.Load(), wire.bytesOut.Load(),
		wire.batches.Load(), wire.malformed.Load()
}

// wireCodec counts gradient payload traffic per codec: frames and payload
// bytes (the float/quant payload itself, excluding framing), split by
// direction. Raw float64 gradients count under CodecRaw at 8 B/element, so
// the per-codec families directly expose each codec's wire savings.
var wireCodec [grad.NumCodecs]struct {
	framesIn, framesOut, bytesIn, bytesOut atomic.Uint64
}

func countCodecIn(c byte, n uint64) {
	if int(c) >= len(wireCodec) {
		return
	}
	wireCodec[c].framesIn.Add(1)
	wireCodec[c].bytesIn.Add(n)
}

// countCodecOut counts a sent gradient envelope's payload.
func countCodecOut(e *Envelope) {
	c, n := byte(grad.CodecRaw), uint64(8*len(e.Vector))
	if len(e.Quant) > 0 {
		c, n = e.Codec, uint64(len(e.Quant))
	}
	if int(c) >= len(wireCodec) {
		return
	}
	wireCodec[c].framesOut.Add(1)
	wireCodec[c].bytesOut.Add(n)
}

// WireCodec snapshots the process-wide gradient payload counters for one
// codec: frames received and sent and payload bytes read and written.
// Cumulative for the process lifetime; an out-of-range codec reads as zero.
func WireCodec(c byte) (framesIn, framesOut, bytesIn, bytesOut uint64) {
	if int(c) >= len(wireCodec) {
		return 0, 0, 0, 0
	}
	w := &wireCodec[c]
	return w.framesIn.Load(), w.framesOut.Load(), w.bytesIn.Load(), w.bytesOut.Load()
}

// countingConn counts raw bytes crossing a connection. Embedding forwards
// Close, deadlines and addresses untouched.
type countingConn struct {
	net.Conn
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	wire.bytesIn.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	wire.bytesOut.Add(uint64(n))
	return n, err
}

// writeBuffers writes bufs, consuming it, to the connection itself — which
// gathers them into one writev where it can, and takes them one Write after
// another where it cannot — and counts the bytes Write would have.
func (c countingConn) writeBuffers(bufs *net.Buffers) error {
	n, err := bufs.WriteTo(c.Conn)
	wire.bytesOut.Add(uint64(n))
	return err
}
