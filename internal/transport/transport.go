// Package transport implements the wire protocol between the master and the
// workers over TCP (or any net.Conn). The protocol is deliberately small —
// assignment, parameter broadcast, coded-gradient upload, shutdown —
// mirroring the BSP gradient-coding loop of the paper, plus the elastic
// control-plane extensions: per-iteration telemetry uploads and
// epoch-versioned reassignment for mid-training strategy migration.
//
// Each message type has one encoding. The iteration path — every dim-sized
// payload: MsgParams broadcasts and MsgGradient uploads, raw or quantized,
// chunked or not, traced or not — rides the binary vector frame (frame.go)
// on every connection: headers are encoded, a raw payload is not — it is
// written to the socket from the vector's memory and read from the socket
// into a pooled vector's. The cold control frames (hello, reassign,
// telemetry, adopt, partition-req, partition, shutdown) are gob-encoded
// envelopes: they are small, rare and carry nested optional structures gob
// handles for free. Recv tells the two apart by the first byte: a gob
// message opens with its non-zero length, so 0x00 marks a vector frame. A
// params or gradient envelope never rides gob: Send refuses one the frame
// cannot carry, and Recv refuses one that arrives gob-encoded.
package transport

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message types.
const (
	// MsgHello is sent by a worker right after connecting. An elastic worker
	// sets WorkerID to its previous member ID to resume its slot after a
	// reconnect, or to -1 (HelloNewWorker) to request a fresh one.
	MsgHello MsgType = iota + 1
	// Number 2 is retired (an epoch-less assignment): refused as unknown.
	_
	// MsgParams broadcasts model parameters for one iteration.
	MsgParams
	// MsgGradient uploads a worker's coded gradient for one iteration.
	MsgGradient
	// MsgShutdown tells a worker to exit cleanly.
	MsgShutdown
	// MsgTelemetry uploads a worker's per-iteration timing telemetry to the
	// elastic control plane (compute seconds, partitions processed).
	MsgTelemetry
	// MsgReassign migrates a worker to a new coding strategy: it carries
	// (Epoch, Assignment) and atomically supersedes every earlier epoch.
	MsgReassign
	// Number 8 is retired (a gob-carried batch): refused as unknown.
	_
	// MsgAdopt is the group-master adoption handshake. A restartable group
	// master opens its uplink with MsgAdopt carrying its Adoption (group
	// index, current epoch base, admitted members); the root replies with
	// MsgAdopt carrying its RootGen and the iteration to serve next, so a
	// surviving group master attaches to a restarted or promoted root
	// without being respawned.
	MsgAdopt
	// MsgPartitionReq opens (or continues) a data-plane session: a worker
	// requests the training-data shard with global index Part. A connection
	// whose FIRST frame is MsgPartitionReq is a data-plane session for its
	// whole life — it never joins the membership.
	MsgPartitionReq
	// MsgPartition answers a MsgPartitionReq with the CRC-framed encoded
	// dataset in Blob, split across Chunks frames (Chunk of Chunks, to be
	// reassembled in order). A reply with Chunks == 0 and an empty Blob means
	// the master does not serve that partition.
	MsgPartition
)

// HelloNewWorker is the MsgHello WorkerID requesting a fresh member slot.
const HelloNewWorker = -1

// msgNames names the message types; a number without a name is unknown.
var msgNames = [...]string{
	MsgHello:        "hello",
	MsgParams:       "params",
	MsgGradient:     "gradient",
	MsgShutdown:     "shutdown",
	MsgTelemetry:    "telemetry",
	MsgReassign:     "reassign",
	MsgAdopt:        "adopt",
	MsgPartitionReq: "partition-req",
	MsgPartition:    "partition",
}

// known reports whether t is a message type of the protocol.
func (t MsgType) known() bool { return t > 0 && int(t) < len(msgNames) && msgNames[t] != "" }

// String names the message type.
func (t MsgType) String() string {
	if !t.known() {
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
	return msgNames[t]
}

// Assignment is the master → worker task description.
type Assignment struct {
	// WorkerID is the worker's index in the coding strategy.
	WorkerID int
	// Partitions are the data partitions this worker computes.
	Partitions []int
	// RowCoeffs are the coding coefficients b_i over those partitions,
	// aligned with Partitions.
	RowCoeffs []float64
	// K is the global partition count.
	K int
	// S is the straggler budget (informational).
	S int
}

// Adoption is the MsgAdopt payload: the group master's side of the
// handshake describes the group it brings (its epoch base and admitted
// members, for membership reconciliation against the root's durable state);
// the root's ack reuses the struct with just the group index, its authority
// carried by the envelope's RootGen and Iter.
type Adoption struct {
	// Group is the coding-group index.
	Group int
	// Epoch is the group's current plan epoch base (-1 before any plan).
	Epoch int
	// Members are the member IDs the group has admitted, ascending.
	Members []int
}

// PhaseSpan is one compact member-local phase timing record (fetch,
// compute, encode, upload) piggybacked upstream on a gradient upload so the
// root can stitch per-member child spans into its iteration trace. Seconds
// must be finite and non-negative; Phase names are short label values.
type PhaseSpan struct {
	Phase   string
	Seconds float64
}

// Telemetry is a worker's per-iteration timing report, the raw input to the
// elastic control plane's throughput estimators.
type Telemetry struct {
	// ComputeSeconds is the wall time the worker spent computing and encoding
	// its partial gradients this iteration.
	ComputeSeconds float64
	// UploadSeconds is the wall time spent serialising the gradient upload
	// (0 when the worker does not measure it).
	UploadSeconds float64
	// Partitions is the number of data partitions processed.
	Partitions int
}

// Envelope is the single message frame exchanged on the wire.
type Envelope struct {
	Type     MsgType
	Iter     int
	WorkerID int
	// Epoch versions the coding strategy the frame belongs to. The master
	// bumps it on every migration; gradients tagged with a stale epoch are
	// rejected before decode.
	Epoch int
	// RootGen is the root's lease generation — the HA fencing token. The
	// root stamps it on every downlink frame and group masters echo it on
	// every group-sum upload, so frames from (or encoded under) a deposed
	// root are rejected typed instead of silently applied. 0 means the run
	// is not lease-fenced (legacy single-root operation).
	RootGen int
	// Chunk/Chunks split one large Vector across several sub-frames of a
	// frame: a chunked MsgGradient carries piece Chunk of Chunks, to be
	// concatenated in order by the receiver (JoinChunks). Chunks == 0 means
	// the frame is unchunked.
	Chunk, Chunks int
	Assign        *Assignment
	Vector        []float64 // parameters (MsgParams) or coded gradient (MsgGradient)
	Telemetry     *Telemetry
	// Adopt is the MsgAdopt payload.
	Adopt *Adoption
	// Part is the global partition index of a data-plane frame
	// (MsgPartitionReq / MsgPartition); 0 otherwise.
	Part int
	// Blob is the MsgPartition payload: one piece of the CRC-framed encoded
	// dataset (see internal/dataplane).
	Blob []byte
	// Codecs advertises the sender's supported non-raw gradient codecs in a
	// handshake frame (MsgHello / MsgAdopt). A peer that predates codec
	// negotiation sends no advertisement — gob simply omits the unknown
	// field — and is served raw float64.
	Codecs []byte
	// Codec is the gradient codec byte (grad.Codec): on a handshake ack it
	// is the master's chosen codec for the connection; on a MsgGradient it
	// tags the Quant payload's encoding. 0 (CodecRaw) everywhere else.
	Codec byte
	// Quant is a quantized gradient payload of QuantLen elements, encoded
	// with Codec; mutually exclusive with Vector. Recv dequantizes it
	// transparently, so receivers above the transport always see Vector.
	Quant    []byte
	QuantLen int
	// Trace is the per-iteration trace-context identifier: the root derives
	// it from (root generation, epoch, iteration), stamps it on every
	// parameter broadcast, and members echo it on their uploads so span
	// records stitch to the right iteration even across migrations and
	// failovers. 0 means no trace context.
	Trace uint64
	// Spans carries the sender's member-local phase timing records,
	// piggybacked on an upload frame (the final chunk of a chunked upload).
	// Bounded by MaxSpans; legal only on MsgGradient and MsgTelemetry.
	Spans []PhaseSpan
}

// Errors returned by the transport layer.
var (
	// ErrClosed is returned on use of a closed connection.
	ErrClosed = errors.New("transport: connection closed")
	// ErrMalformed is returned by Recv for frames that violate protocol
	// invariants (mismatched assignment arrays, negative K/S, absurd vector
	// lengths); such frames never reach decode.
	ErrMalformed = errors.New("transport: malformed envelope")
)

// MaxVectorLen bounds the length of any Vector accepted by Recv, far above
// any real model dimension. The vector-frame decoder checks a frame's
// declared element count against it — and against the bytes the frame
// declares — before taking a buffer, and lets a buffer above allocStep grow
// only as the payload arrives.
const MaxVectorLen = 1 << 30

// MaxAdoptMembers bounds the member list of an adoption handshake.
const MaxAdoptMembers = 1 << 20

// MaxBlobLen bounds the byte length of any data-plane Blob piece accepted by
// Recv (the same application-layer sanity check as MaxVectorLen).
const MaxBlobLen = 1 << 30

// MaxPartIndex bounds the partition index of a data-plane frame, far above
// any real partition count.
const MaxPartIndex = 1 << 30

// MaxCodecList bounds a handshake's codec advertisement, above any codec set
// a real peer version could support.
const MaxCodecList = 16

// maxQuantBytesPerElem bounds a quantized payload's size relative to its
// element count: delta's worst case is a 10-byte uvarint per element, plus a
// small per-payload header allowance.
const maxQuantBytesPerElem = 10

// MaxSpans bounds the phase-span records piggybacked on one upload frame —
// far above the handful of member-local phases a real sender times.
const MaxSpans = 16

// maxSpanPhaseLen bounds one span's phase name (they are metric label
// values, not free text).
const maxSpanPhaseLen = 64

// validate checks the structural invariants of a received envelope.
func (e *Envelope) validate() error {
	if !e.Type.known() {
		return fmt.Errorf("%w: unknown message type %d", ErrMalformed, int(e.Type))
	}
	if e.Iter < 0 || e.Epoch < 0 {
		return fmt.Errorf("%w: %v iter=%d epoch=%d", ErrMalformed, e.Type, e.Iter, e.Epoch)
	}
	if e.RootGen < 0 {
		return fmt.Errorf("%w: %v root generation %d", ErrMalformed, e.Type, e.RootGen)
	}
	if e.Part < 0 || e.Part > MaxPartIndex {
		return fmt.Errorf("%w: %v partition index %d", ErrMalformed, e.Type, e.Part)
	}
	if e.Part != 0 && e.Type != MsgPartitionReq && e.Type != MsgPartition {
		return fmt.Errorf("%w: %v carries a partition index", ErrMalformed, e.Type)
	}
	if !grad.Codec(e.Codec).Valid() {
		return fmt.Errorf("%w: %v unknown gradient codec %d", ErrMalformed, e.Type, e.Codec)
	}
	if e.Codec != 0 && e.Type != MsgHello && e.Type != MsgAdopt && e.Type != MsgGradient {
		return fmt.Errorf("%w: %v carries gradient codec %s", ErrMalformed, e.Type, grad.Codec(e.Codec))
	}
	if len(e.Codecs) > MaxCodecList {
		return fmt.Errorf("%w: %v advertises %d codecs (cap %d)", ErrMalformed, e.Type, len(e.Codecs), MaxCodecList)
	}
	if len(e.Codecs) > 0 && e.Type != MsgHello && e.Type != MsgAdopt {
		return fmt.Errorf("%w: %v carries a codec advertisement", ErrMalformed, e.Type)
	}
	for _, c := range e.Codecs {
		if !grad.Codec(c).Valid() {
			return fmt.Errorf("%w: %v advertises unknown codec %d", ErrMalformed, e.Type, c)
		}
	}
	if (len(e.Vector) > 0 || len(e.Quant) > 0 || e.QuantLen != 0) && e.Type != MsgParams && e.Type != MsgGradient {
		return fmt.Errorf("%w: %v carries a vector payload", ErrMalformed, e.Type)
	}
	if len(e.Spans) > 0 {
		if e.Type != MsgGradient && e.Type != MsgTelemetry {
			return fmt.Errorf("%w: %v carries phase spans", ErrMalformed, e.Type)
		}
		if len(e.Spans) > MaxSpans {
			return fmt.Errorf("%w: %v carries %d phase spans (cap %d)", ErrMalformed, e.Type, len(e.Spans), MaxSpans)
		}
		if e.Chunks > 0 && e.Chunk != e.Chunks-1 {
			return fmt.Errorf("%w: phase spans on chunk %d of %d (final chunk only)", ErrMalformed, e.Chunk, e.Chunks)
		}
		for _, sp := range e.Spans {
			if sp.Phase == "" || len(sp.Phase) > maxSpanPhaseLen {
				return fmt.Errorf("%w: phase span name %q", ErrMalformed, sp.Phase)
			}
			if sp.Seconds < 0 || math.IsNaN(sp.Seconds) || math.IsInf(sp.Seconds, 0) {
				return fmt.Errorf("%w: phase span %q seconds %v", ErrMalformed, sp.Phase, sp.Seconds)
			}
		}
	}
	if e.Chunks < 0 || (e.Chunks == 0 && e.Chunk != 0) ||
		(e.Chunks > 0 && (e.Chunk < 0 || e.Chunk >= e.Chunks)) {
		return fmt.Errorf("%w: %v chunk %d of %d", ErrMalformed, e.Type, e.Chunk, e.Chunks)
	}
	if e.Chunks > 0 && e.Type != MsgGradient && e.Type != MsgPartition {
		return fmt.Errorf("%w: %v cannot be chunked", ErrMalformed, e.Type)
	}
	if len(e.Blob) > MaxBlobLen {
		return fmt.Errorf("%w: %v blob length %d exceeds cap %d", ErrMalformed, e.Type, len(e.Blob), MaxBlobLen)
	}
	if len(e.Blob) > 0 && e.Type != MsgPartition {
		return fmt.Errorf("%w: %v carries a blob payload", ErrMalformed, e.Type)
	}
	if e.Type == MsgPartitionReq && (e.Assign != nil || e.Vector != nil || e.Telemetry != nil || e.Chunks != 0) {
		return fmt.Errorf("%w: partition-req with payload", ErrMalformed)
	}
	if e.Type == MsgPartition {
		if e.Chunks > 0 && len(e.Blob) == 0 {
			return fmt.Errorf("%w: partition chunk %d of %d with empty blob", ErrMalformed, e.Chunk, e.Chunks)
		}
		if e.Chunks == 0 && len(e.Blob) > 0 {
			return fmt.Errorf("%w: partition data without chunk framing", ErrMalformed)
		}
	}
	if a := e.Assign; a != nil {
		if len(a.Partitions) != len(a.RowCoeffs) {
			return fmt.Errorf("%w: assignment has %d partitions but %d coefficients", ErrMalformed, len(a.Partitions), len(a.RowCoeffs))
		}
		if a.K <= 0 || a.S < 0 {
			return fmt.Errorf("%w: assignment k=%d s=%d", ErrMalformed, a.K, a.S)
		}
		if len(a.Partitions) > a.K {
			return fmt.Errorf("%w: assignment holds %d partitions with k=%d", ErrMalformed, len(a.Partitions), a.K)
		}
		for _, p := range a.Partitions {
			if p < 0 || p >= a.K {
				return fmt.Errorf("%w: assignment partition %d outside [0,%d)", ErrMalformed, p, a.K)
			}
		}
	}
	if e.Type == MsgReassign && e.Assign == nil {
		return fmt.Errorf("%w: %v without assignment payload", ErrMalformed, e.Type)
	}
	if e.Type == MsgAdopt && e.Adopt == nil {
		return fmt.Errorf("%w: adopt without adoption payload", ErrMalformed)
	}
	if e.Type != MsgAdopt && e.Adopt != nil {
		return fmt.Errorf("%w: %v carries an adoption payload", ErrMalformed, e.Type)
	}
	if a := e.Adopt; a != nil {
		if a.Group < 0 {
			return fmt.Errorf("%w: adoption group %d", ErrMalformed, a.Group)
		}
		if a.Epoch < -1 {
			return fmt.Errorf("%w: adoption epoch %d", ErrMalformed, a.Epoch)
		}
		if len(a.Members) > MaxAdoptMembers {
			return fmt.Errorf("%w: adoption with %d members exceeds cap %d", ErrMalformed, len(a.Members), MaxAdoptMembers)
		}
		prev := 0
		for _, m := range a.Members {
			if m <= prev {
				return fmt.Errorf("%w: adoption members not ascending positive IDs (%d after %d)", ErrMalformed, m, prev)
			}
			prev = m
		}
	}
	if t := e.Telemetry; t != nil {
		if t.Partitions < 0 || t.ComputeSeconds < 0 || t.UploadSeconds < 0 {
			return fmt.Errorf("%w: negative telemetry %+v", ErrMalformed, *t)
		}
	}
	return nil
}

// Conn is a bidirectional message stream carrying binary vector frames and
// gob control envelopes. Send and Recv are each safe for one concurrent user (one
// reader, one writer).
type Conn struct {
	// w is the underlying connection behind the byte-counting shim; frames
	// are written to it directly and deadlines, Close and addresses forward.
	w countingConn
	// br buffers the read side. gob reads through it without private
	// read-ahead (it is an io.ByteReader), so Recv can peek the next frame's
	// first byte and hand the stream to whichever decoder owns it.
	br  *bufio.Reader
	enc *gob.Encoder
	dec *gob.Decoder
	// pending holds sub-frames of the last received frame still owed to Recv
	// callers (only the reader touches it).
	pending []*Envelope
	// iov is writeFrame's gather list, kept between frames so a send
	// allocates none (only the writer touches it). A Broadcast shares one
	// header and one vector among its connections; the list over them is each
	// connection's own, because the write consumes it.
	iov     [][]byte
	writing net.Buffers
}

// readBufSize is the connection read buffer. Payloads bypass it (a read at
// least this long goes to the socket directly), so it serves gob frames,
// vector-frame headers and payload tails: large enough to hold the vector
// frames of a small model whole, small enough to stay a size-class allocation
// (a larger one goes to the page heap, which showed up in cluster bring-up
// time at one buffer per connection).
const readBufSize = 32 << 10

// NewConn wraps a net.Conn. All traffic is routed through a byte-counting
// shim feeding the process-wide Wire counters.
func NewConn(raw net.Conn) *Conn {
	counted := countingConn{Conn: raw}
	br := bufio.NewReaderSize(counted, readBufSize)
	return &Conn{w: counted, br: br, enc: gob.NewEncoder(counted), dec: gob.NewDecoder(br)}
}

// Dial connects to a master at addr.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport dial %s: %w", addr, err)
	}
	return NewConn(raw), nil
}

// Send writes one envelope: a params or gradient envelope as a vector frame,
// any other gob-encoded. A vector envelope the frame cannot carry is refused
// with an error wrapping ErrMalformed, and nothing is written.
func (c *Conn) Send(e *Envelope) error {
	if e.Type == MsgParams || e.Type == MsgGradient {
		return c.sendFrame(e)
	}
	if err := c.enc.Encode(e); err != nil {
		return fmt.Errorf("transport send %v: %w", e.Type, err)
	}
	wire.framesOut.Add(1)
	return nil
}

// sendFrame sends envs as one binary wire frame, or nothing when one of them
// does not fit it (see encodeWireFrame).
func (c *Conn) sendFrame(envs ...*Envelope) error {
	buf, err := encodeWireFrame(envs...)
	if err != nil {
		return err
	}
	err = c.writeFrame(buf, envs...)
	grad.PutBytes(buf)
	return err
}

// writeFrame writes one wire frame holding envs' vector sub-frames — head is
// encodeWireFrame's, which may be shared and is only read — as a single
// gathered write, and counts it like the Send (or SendBatch) it stands for.
func (c *Conn) writeFrame(head []byte, envs ...*Envelope) error {
	// Cut head where it left a payload out: the sub-frame's declared length
	// less the payload is what head holds of it.
	c.iov = c.iov[:0]
	at := wireHeaderLen
	for _, e := range envs {
		payload := scattered(e)
		at += 4 + int(wireOrder.Uint32(head[at:])) - len(payload)
		if len(payload) > 0 {
			c.iov = append(c.iov, head[:at], payload)
			head, at = head[at:], 0
		}
	}
	if len(head) > 0 {
		c.iov = append(c.iov, head)
	}
	c.writing = c.iov
	if err := c.w.writeBuffers(&c.writing); err != nil {
		return fmt.Errorf("transport send %v: %w", envs[0].Type, err)
	}
	wire.framesOut.Add(1)
	if len(envs) > 1 {
		wire.batches.Add(1)
	}
	for _, e := range envs {
		if e.Type == MsgGradient {
			countCodecOut(e)
		}
	}
	return nil
}

// Recv reads one envelope and validates its protocol invariants; frames that
// fail validation are rejected with an error wrapping ErrMalformed so they
// never reach the decode path, and so is a params or gradient envelope that
// arrives gob-encoded. Batches (SendBatch) are unpacked transparently: their
// sub-frames are returned one per Recv call, in send order, and a batch with
// any malformed or truncated sub-frame is rejected whole — the outer frame was
// fully consumed, so the stream stays in sync.
//
// The Vector of a received envelope comes from the gradient pool
// (grad.GetBuffer). A receiver on the iteration path hands it back with
// grad.PutBuffer once done, which makes the steady state allocation-free; a
// receiver that never does stays correct — the buffer is garbage-collected.
func (c *Conn) Recv() (*Envelope, error) {
	if len(c.pending) > 0 {
		e := c.pending[0]
		c.pending = c.pending[1:]
		return e, nil
	}
	first, err := c.br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("transport recv: %w", err)
	}
	if first[0] == frameMarker {
		return c.recvFrame()
	}
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("transport recv: %w", err)
	}
	wire.framesIn.Add(1)
	err = e.validate()
	if err == nil && (e.Type == MsgParams || e.Type == MsgGradient) {
		err = fmt.Errorf("%w: %v as a gob envelope (vectors ride the vector frame only)", ErrMalformed, e.Type)
	}
	if err != nil {
		wire.malformed.Add(1)
		return nil, err
	}
	return &e, nil
}

// recvFrame reads one binary wire frame: the marker, the body length, then
// the body's vector sub-frames, headers off the read buffer and raw payloads
// into their vectors. A protocol violation anywhere in the body rejects the
// whole frame with ErrMalformed after skipping to its declared end, so the
// stream stays in sync wherever the length prefix was honest. A declared
// length above maxFrameBody fails the connection before anything is sized
// from it.
func (c *Conn) recvFrame() (*Envelope, error) {
	hdr, err := c.br.Peek(wireHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("transport recv: %w", err)
	}
	n := wireOrder.Uint32(hdr[1:])
	_, _ = c.br.Discard(wireHeaderLen) // cannot fail: just peeked
	wire.framesIn.Add(1)
	if n > maxFrameBody {
		// No sender frames a body this long, and nothing is skipped on its
		// word. Not ErrMalformed, which promises a stream still in sync: this
		// one is lost, and the reader drops the connection.
		wire.malformed.Add(1)
		return nil, fmt.Errorf("transport recv: frame body of %d bytes exceeds cap %d", n, maxFrameBody)
	}
	subs, err := decodeFrames(c.br, int(n))
	if err != nil {
		if errors.Is(err, ErrMalformed) {
			wire.malformed.Add(1)
			return nil, err
		}
		return nil, fmt.Errorf("transport recv: %w", err)
	}
	c.pending = subs[1:]
	return subs[0], nil
}

// SetDeadline bounds both reads and writes.
func (c *Conn) SetDeadline(t time.Time) error { return c.w.SetDeadline(t) }

// SetWriteDeadline bounds writes only — senders with a concurrent reader on
// the same connection use this so a stalled peer fails the Send without
// poisoning the reader's blocking Recv.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.w.Close() }

// RemoteAddr exposes the peer address (for logs).
func (c *Conn) RemoteAddr() net.Addr { return c.w.RemoteAddr() }

// Listener accepts worker connections for a master.
type Listener struct {
	l net.Listener
}

// Listen starts listening on addr ("127.0.0.1:0" picks a free port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address, e.g. to hand to workers.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next worker connection.
func (l *Listener) Accept() (*Conn, error) {
	raw, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport accept: %w", err)
	}
	return NewConn(raw), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }
