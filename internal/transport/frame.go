// The frame: the one binary layout for every message. A fixed header, fixed
// optional sections, then the payload its message type decides:
//
//	offset  size  field
//	0       1     subFrameVector (the one sub-frame kind)
//	1       1     message type
//	2       1     codec (grad.Codec: a gradient payload's, or a hello ack's)
//	3       1     flags (bit 0: the trace is present; bit 1: Part is)
//	4       1     phase-span count (at most MaxSpans)
//	5       28    Iter, Epoch, WorkerID, Chunk, Chunks, RootGen and the
//	              payload's element count
//	33      8     trace context (only when flagged)
//	…       4     Part (only when flagged)
//	…             one record per span: name length (1 byte), name, seconds
//	…             payload — params, gradient: 8 bytes per element for the
//	              raw codec, else the codec's bytes to the sub-frame's end;
//	              reassign: the assignment's WorkerID, K and S, then one
//	              partition per element, then as many coefficients;
//	              telemetry: ComputeSeconds, UploadSeconds, Partitions (no
//	              elements); partition: one blob byte per element; hello,
//	              partition-req, shutdown: nothing (no elements)
//
// Integers are int32, the trace a uint64 and floats IEEE-754 float64, all
// little-endian. Sub-frames travel length-prefixed (uint32 big-endian). A
// wire frame is the marker byte 0x00, the body length (uint32 big-endian) and
// a body of one or more sub-frames — one for a Send, several for a SendBatch.
// A raw vector payload is not encoded: it is the vector's own memory
// (hostorder.go), so the frame goes out as one gathered write of header,
// vector, header, vector…, and comes in with the payload read off the socket
// straight into a pooled vector — the connection's read buffer holds only
// what a header-sized read happened to bring with it. An envelope the frame
// cannot carry (one validate refuses, a field outside its int32, a body over
// maxFrameBody) is refused at the sender with ErrMalformed, and nothing is
// written.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

const (
	// frameMarker opens a wire frame.
	frameMarker = 0x00
	// wireHeaderLen is the marker plus the body length.
	wireHeaderLen = 5

	// subFrameVector is the one sub-frame kind; any other kind byte is
	// malformed.
	subFrameVector = 0x03

	vectorHeaderLen = 5 + 4*7
	flagTrace       = 1 << 0
	flagPart        = 1 << 1
	// maxVectorHeadLen bounds the header plus its optional sections: the
	// trace context, the partition index and MaxSpans records with the
	// longest encodable name.
	maxVectorHeadLen = vectorHeaderLen + 8 + 4 + MaxSpans*(1+math.MaxUint8+8)

	// Control payloads: a reassign's before its elements (WorkerID, K, S) and
	// per element (a partition and its coefficient), and a telemetry's.
	assignHeadLen  = 3 * 4
	assignEntryLen = 4 + 8
	telemetryLen   = 8 + 8 + 4

	// allocStep is the largest payload buffer, in bytes, the decoder takes on
	// a header's word alone. A longer payload's buffer doubles as the bytes
	// arrive, so what a peer makes the decoder hold is bounded by what it
	// actually sent, not by what it declared.
	allocStep = 8 << 20
)

// wireOrder is the byte order of the frame and sub-frame length prefixes.
var wireOrder = binary.BigEndian

// maxFrameBody bounds the body a sender will frame (the length prefix is a
// uint32; int32 range keeps the arithmetic portable).
const maxFrameBody = math.MaxInt32

// maxBatchFrames bounds the number of sub-frames Recv will unpack from one
// frame; an application-layer sanity cap like MaxVectorLen.
const maxBatchFrames = 1 << 20

// maxQuantBytesPerElem bounds a quantized sub-frame's payload relative to its
// element count: int8 spends 1 B per element and 4 B of scale per started
// 64-element chunk, at most 5 B per element.
const maxQuantBytesPerElem = 5

// fitInt32 reports whether every v fits the int32 it is laid out in.
func fitInt32(vs ...int) bool {
	for _, v := range vs {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return false
		}
	}
	return true
}

// vectorFrameLen returns the encoded length of e's sub-frame, or an error
// wrapping ErrMalformed when the frame cannot carry e: e fails validate, a
// value is outside the int32 it is laid out in (the encoder would silently
// truncate it, and it would decode as a different frame), or a quantized
// payload is inconsistent. The body cap (encodeWireFrame) bounds the payload.
func vectorFrameLen(e *Envelope) (int, error) {
	if err := e.validate(); err != nil {
		return 0, err
	}
	if a, t := e.Assign, e.Telemetry; !fitInt32(e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen, e.Part) ||
		a != nil && !fitInt32(a.WorkerID, a.K, a.S) || t != nil && !fitInt32(t.Partitions) {
		return 0, fmt.Errorf("%w: %v field outside the frame's int32 range", ErrMalformed, e.Type)
	}
	n := vectorHeaderLen + payloadLen(e.Type, elements(e))
	if e.Type == MsgGradient && e.Codec != 0 || len(e.Quant) > 0 || e.QuantLen != 0 {
		if e.Codec == 0 || len(e.Quant) == 0 || len(e.Vector) != 0 || e.QuantLen < 1 || e.QuantLen > MaxVectorLen {
			return 0, fmt.Errorf("%w: %v codec %d with a %d-byte payload of %d elements and %d raw ones",
				ErrMalformed, e.Type, e.Codec, len(e.Quant), e.QuantLen, len(e.Vector))
		}
		n = vectorHeaderLen + len(e.Quant)
	}
	_, opt := sections(e)
	return n + opt, nil
}

// sections returns e's header flags and the length of its optional sections.
func sections(e *Envelope) (flags byte, n int) {
	if e.Trace != 0 {
		flags, n = flagTrace, 8
	}
	if e.Part != 0 {
		flags, n = flags|flagPart, n+4
	}
	for _, sp := range e.Spans {
		n += 1 + len(sp.Phase) + 8
	}
	return flags, n
}

// elements is the element count e's header declares for its payload.
func elements(e *Envelope) int {
	switch {
	case len(e.Quant) > 0:
		return e.QuantLen
	case e.Assign != nil:
		return len(e.Assign.Partitions)
	}
	return len(e.Vector) + len(e.Blob)
}

// payloadLen is the payload of a sub-frame of type t declaring count
// elements — unless quantized, which runs to the end of the sub-frame — or
// -1 where t's layout has no elements to count.
func payloadLen(t MsgType, count int) int {
	switch t {
	case MsgParams, MsgGradient:
		return 8 * count
	case MsgReassign:
		return assignHeadLen + assignEntryLen*count
	case MsgPartition:
		return count
	case MsgTelemetry:
		if count == 0 {
			return telemetryLen
		}
	default:
		if count == 0 {
			return 0
		}
	}
	return -1
}

// appendSubFrame appends e, which vectorFrameLen accepted, as one
// length-prefixed sub-frame. A payload that scattered returns is left out —
// the length prefix counts it all the same — for the writer to send right
// behind these bytes.
func appendSubFrame(dst []byte, e *Envelope) []byte {
	le := binary.LittleEndian
	at, owed := len(dst), 0
	flags, _ := sections(e)
	dst = append(dst, 0, 0, 0, 0, subFrameVector, byte(e.Type), e.Codec, flags, byte(len(e.Spans)))
	for _, v := range [...]int{e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen, elements(e)} {
		dst = le.AppendUint32(dst, uint32(v))
	}
	if e.Trace != 0 {
		dst = le.AppendUint64(dst, e.Trace)
	}
	if e.Part != 0 {
		dst = le.AppendUint32(dst, uint32(e.Part))
	}
	for _, sp := range e.Spans {
		dst = append(dst, byte(len(sp.Phase)))
		dst = append(dst, sp.Phase...)
		dst = le.AppendUint64(dst, math.Float64bits(sp.Seconds))
	}
	switch {
	case e.Type == MsgReassign:
		a := e.Assign
		for _, v := range append([]int{a.WorkerID, a.K, a.S}, a.Partitions...) {
			dst = le.AppendUint32(dst, uint32(v))
		}
		dst = AppendFloat64s(dst, a.RowCoeffs)
	case e.Type == MsgTelemetry:
		var t Telemetry // a nil Telemetry is sent as zeros
		if e.Telemetry != nil {
			t = *e.Telemetry
		}
		dst = le.AppendUint64(dst, math.Float64bits(t.ComputeSeconds))
		dst = le.AppendUint64(dst, math.Float64bits(t.UploadSeconds))
		dst = le.AppendUint32(dst, uint32(t.Partitions))
	case len(e.Quant) > 0:
		dst = append(dst, e.Quant...)
	case len(e.Blob) > 0:
		dst = append(dst, e.Blob...)
	case scattered(e) != nil:
		owed = len(scattered(e))
	default:
		dst = AppendFloat64s(dst, e.Vector)
	}
	wireOrder.PutUint32(dst[at:], uint32(len(dst)-at-4+owed))
	return dst
}

// scattered returns the part of e's sub-frame that is not encoded: the raw
// payload, as e.Vector's own memory, which Conn.writeFrame gathers into the
// write behind the sub-frame's header. Nil where the memory is not the wire
// encoding (hostorder.go) and the payload is encoded like the rest.
func scattered(e *Envelope) []byte {
	if !hostLittleEndian {
		return nil
	}
	return floatBytes(e.Vector)
}

// encodeWireFrame encodes envs as one binary wire frame, less what scattered
// returns of each, in a pooled buffer (return it with grad.PutBytes). An
// envelope the frame cannot carry, or a body over maxFrameBody, is an error
// wrapping ErrMalformed, and nothing is encoded.
func encodeWireFrame(envs ...*Envelope) ([]byte, error) {
	body, owed := 0, 0
	for i, e := range envs {
		n, err := vectorFrameLen(e)
		if err != nil {
			return nil, fmt.Errorf("transport send %v (sub-frame %d): %w", e.Type, i, err)
		}
		body += 4 + n
		owed += len(scattered(e))
	}
	if body > maxFrameBody {
		return nil, fmt.Errorf("%w: frame body of %d bytes exceeds cap %d", ErrMalformed, body, maxFrameBody)
	}
	buf := append(grad.GetBytes(wireHeaderLen+body-owed), frameMarker)
	buf = wireOrder.AppendUint32(buf, uint32(body))
	for _, e := range envs {
		buf = appendSubFrame(buf, e)
	}
	return buf, nil
}

// Broadcast sends e, a params envelope, to every connection in conns (nil
// entries are skipped). The frame's header is encoded once, and every
// connection is written that header and e's vector, from the one copy of
// each. The writes fan out concurrently, each under a write deadline of
// timeout, so a peer whose socket is full delays no other, and are joined
// before Broadcast returns: errs[i] is conns[i]'s send error, and e may
// change again. An e the frame cannot carry is every connection's error.
func Broadcast(conns []*Conn, e *Envelope, timeout time.Duration) (errs []error) {
	errs = make([]error, len(conns))
	frame, err := encodeWireFrame(e)
	if err != nil {
		for i, c := range conns {
			if c != nil {
				errs[i] = err
			}
		}
		return errs
	}
	defer grad.PutBytes(frame)
	var wg sync.WaitGroup
	send := func(i int) {
		c := conns[i]
		_ = c.SetWriteDeadline(time.Now().Add(timeout))
		errs[i] = c.writeFrame(frame, e)
		_ = c.SetWriteDeadline(time.Time{})
	}
	inline := -1 // the calling goroutine takes one write itself
	for i, c := range conns {
		switch {
		case c == nil:
		case inline < 0:
			inline = i
		default:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				send(i)
			}(i)
		}
	}
	if inline >= 0 {
		send(inline)
	}
	wg.Wait()
	return errs
}

// frameReader decodes the sub-frames of one frame body from a connection's
// buffered reader — whose Read, once drained, reads from the socket straight
// into a destination at least as large as its buffer. left counts the body's
// unread bytes: nothing is read past it, and skipping it leaves the reader at
// the next frame.
type frameReader struct {
	src  *bufio.Reader
	left int
}

// peek returns a view of the next n unread bytes, valid until the next read.
// Asking past the body's end means a length field lied: ErrMalformed.
func (fr *frameReader) peek(n int) ([]byte, error) {
	if n > fr.left {
		return nil, fmt.Errorf("%w: frame truncated (%d bytes wanted, %d left)", ErrMalformed, n, fr.left)
	}
	return fr.src.Peek(n)
}

// discard consumes n bytes a peek just returned.
func (fr *frameReader) discard(n int) {
	m, _ := fr.src.Discard(n) // cannot run short: the bytes were just peeked
	fr.left -= m
}

// decodeFrames reads a frame body of n bytes from src and returns its
// sub-frames, each validated. Truncated length prefixes or payloads, unknown
// sub-frame kinds and sub-frames violating protocol invariants all reject the
// whole body with ErrMalformed — after consuming it, so src is left at the
// body's end. Any other error is src failing mid-body.
func decodeFrames(src *bufio.Reader, n int) ([]*Envelope, error) {
	fr := frameReader{src: src, left: n}
	var subs []*Envelope
	for fr.left > 0 {
		e, err := fr.next(len(subs))
		if err != nil {
			for _, s := range subs {
				grad.PutBuffer(s.Vector)
			}
			if errors.Is(err, ErrMalformed) {
				_, _ = src.Discard(fr.left) // a failing source fails the next Recv too
			}
			return nil, err
		}
		subs = append(subs, e)
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrMalformed)
	}
	return subs, nil
}

// next decodes sub-frame i.
func (fr *frameReader) next(i int) (*Envelope, error) {
	if i == maxBatchFrames {
		return nil, fmt.Errorf("%w: batch exceeds %d sub-frames", ErrMalformed, maxBatchFrames)
	}
	b, err := fr.peek(5)
	if err != nil {
		return nil, err
	}
	n, kind := int(wireOrder.Uint32(b)), b[4]
	fr.discard(4)
	if n <= 0 || n > fr.left {
		return nil, fmt.Errorf("%w: batch sub-frame length %d with %d bytes left", ErrMalformed, n, fr.left)
	}
	if kind != subFrameVector {
		return nil, fmt.Errorf("%w: batch sub-frame %d has unknown kind %#x", ErrMalformed, i, kind)
	}
	e, err := fr.envelope(n)
	if err != nil && errors.Is(err, ErrMalformed) {
		err = fmt.Errorf("batch sub-frame %d: %w", i, err)
	}
	return e, err
}

// envelope decodes one sub-frame of n bytes. Every declared size — the span
// count, the element count, the payload length the sub-frame leaves room for
// — is checked against its cap and against n before a buffer is taken, so a
// hostile header costs no allocation.
func (fr *frameReader) envelope(n int) (*Envelope, error) {
	// The header and its optional sections fit one peek; the payload follows.
	head, err := fr.peek(min(n, maxVectorHeadLen))
	if err != nil {
		return nil, err
	}
	if len(head) < vectorHeaderLen {
		return nil, fmt.Errorf("%w: sub-frame header truncated (%d bytes)", ErrMalformed, n)
	}
	e := &Envelope{Type: MsgType(head[1]), Codec: head[2]}
	flags, spans := head[3], int(head[4])
	field := func(i int) int { return int32At(head[5+4*i:]) }
	e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen = field(0), field(1), field(2), field(3), field(4), field(5)
	count := field(6)
	at := vectorHeaderLen
	if !e.Type.known() || flags&^(flagTrace|flagPart) != 0 || spans > MaxSpans || count < 0 || count > MaxVectorLen {
		return nil, fmt.Errorf("%w: sub-frame type %d flags %#x with %d spans, %d elements", ErrMalformed, int(e.Type), flags, spans, count)
	}
	truncated := func() (*Envelope, error) {
		return nil, fmt.Errorf("%w: sub-frame trace, partition or span section truncated", ErrMalformed)
	}
	if flags&flagTrace != 0 {
		if at+8 > len(head) {
			return truncated()
		}
		e.Trace, at = binary.LittleEndian.Uint64(head[at:]), at+8
	}
	if flags&flagPart != 0 {
		if at+4 > len(head) {
			return truncated()
		}
		e.Part, at = int32At(head[at:]), at+4
	}
	for i := 0; i < spans; i++ {
		if at >= len(head) || at+1+int(head[at])+8 > len(head) {
			return truncated()
		}
		end := at + 1 + int(head[at]) + 8
		e.Spans = append(e.Spans, PhaseSpan{
			Phase:   string(head[at+1 : end-8]),
			Seconds: float64At(head[end-8:]),
		})
		at = end
	}
	fr.discard(at)
	rest := n - at
	if e.Type != MsgParams && e.Type != MsgGradient {
		if err := fr.control(e, count, rest); err != nil {
			return nil, err
		}
		if err := e.validate(); err != nil {
			return nil, err
		}
		return e, nil
	}
	// Everything validate can judge without the payload, before taking a
	// buffer for it.
	if err := e.validate(); err != nil {
		return nil, err
	}
	if e.Codec == byte(grad.CodecRaw) {
		if rest != payloadLen(e.Type, count) {
			return nil, fmt.Errorf("%w: vector sub-frame holds %d bytes for %d elements", ErrMalformed, rest, count)
		}
		if count > 0 {
			e.Vector, err = fr.floats(count)
		}
	} else {
		// int8, the one quantized codec, spends at least count bytes and at
		// most maxQuantBytesPerElem·count.
		if e.Type != MsgGradient || count < 1 || rest < count || rest > maxQuantBytesPerElem*count {
			return nil, fmt.Errorf("%w: %v sub-frame holds %d %s bytes for %d elements", ErrMalformed, e.Type, rest, grad.Codec(e.Codec), count)
		}
		e.Vector, err = fr.quantized(count, grad.Codec(e.Codec), rest)
	}
	if err != nil {
		return nil, err
	}
	if e.Type == MsgGradient {
		countCodecIn(e.Codec, uint64(rest))
	}
	return e, nil
}

// control decodes the payload of control message e: rest bytes, which the
// layout of e's type must account for exactly with count elements. The sizes
// are judged before anything is read, and the payload is read into a buffer
// that grows as its bytes arrive.
func (fr *frameReader) control(e *Envelope, count, rest int) error {
	if rest != payloadLen(e.Type, count) {
		return fmt.Errorf("%w: %v sub-frame holds %d bytes for %d elements", ErrMalformed, e.Type, rest, count)
	}
	if rest == 0 {
		return nil
	}
	b, err := fr.readBytes(rest)
	if err != nil {
		return err
	}
	defer grad.PutBytes(b)
	switch e.Type {
	case MsgTelemetry:
		e.Telemetry = &Telemetry{ComputeSeconds: float64At(b), UploadSeconds: float64At(b[8:]), Partitions: int32At(b[16:])}
	case MsgPartition:
		e.Blob = append([]byte(nil), b...)
	case MsgReassign:
		a := &Assignment{WorkerID: int32At(b), K: int32At(b[4:]), S: int32At(b[8:]),
			Partitions: make([]int, count), RowCoeffs: make([]float64, count)}
		coeffs := b[assignHeadLen+4*count:]
		for i := range a.Partitions {
			a.Partitions[i] = int32At(b[assignHeadLen+4*i:])
			a.RowCoeffs[i] = float64At(coeffs[8*i:])
		}
		e.Assign = a
	}
	return nil
}

func int32At(b []byte) int { return int(int32(binary.LittleEndian.Uint32(b))) }

func float64At(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// floats reads count raw elements — the caller checked that the sub-frame
// holds them — off the source into the memory of a pooled vector (see
// allocStep).
func (fr *frameReader) floats(count int) ([]float64, error) {
	vec := grad.GetBuffer(min(count, allocStep/8))
	for at := 0; at < count; at = len(vec) {
		if at > 0 { // vec is full and the payload goes on
			grown := grad.GetBuffer(min(count, 2*len(vec)))
			copy(grown, vec)
			grad.PutBuffer(vec)
			vec = grown
		}
		m, err := io.ReadFull(fr.src, floatBytes(vec[at:]))
		fr.left -= m
		if err != nil {
			grad.PutBuffer(vec)
			return nil, err
		}
	}
	if !hostLittleEndian {
		swapFloatBytes(floatBytes(vec))
	}
	return vec, nil
}

// quantized reads a codec payload of n bytes (see readBytes) and dequantizes
// its count elements into a pooled vector, taken once the payload is in —
// int8 spends a byte per element, so that too is bounded by the bytes
// received. A payload the codec rejects is a protocol violation.
func (fr *frameReader) quantized(count int, c grad.Codec, n int) ([]float64, error) {
	q, err := fr.readBytes(n)
	if err != nil {
		return nil, err
	}
	defer grad.PutBytes(q)
	vec := grad.GetBuffer(count)
	if err := grad.DequantizeInto(vec, c, q); err != nil {
		grad.PutBuffer(vec)
		return nil, fmt.Errorf("%w: %s gradient payload: %v", ErrMalformed, c, err)
	}
	return vec, nil
}

// readBytes reads the next n bytes of the sub-frame into a pooled buffer
// (return it with grad.PutBytes). The buffer is taken at most allocStep long
// and doubles as the bytes arrive (see allocStep).
func (fr *frameReader) readBytes(n int) ([]byte, error) {
	q := grad.GetBytes(min(n, allocStep))
	for len(q) < n {
		if len(q) == cap(q) {
			grown := append(grad.GetBytes(min(n, 2*cap(q))), q...)
			grad.PutBytes(q)
			q = grown
		}
		k := min(cap(q), n) - len(q)
		m, err := io.ReadFull(fr.src, q[len(q):len(q)+k])
		fr.left -= m
		q = q[:len(q)+m]
		if err != nil {
			grad.PutBytes(q)
			return nil, err
		}
	}
	return q, nil
}
