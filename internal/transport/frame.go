// The vector frame: the one binary layout for every dim-sized payload —
// MsgParams broadcasts and MsgGradient uploads, raw or quantized, chunked or
// not, traced or not. A fixed header, fixed optional sections for the trace
// context and the phase spans, then the payload:
//
//	offset  size  field
//	0       1     subFrameVector
//	1       1     message type (MsgParams or MsgGradient)
//	2       1     payload codec (grad.Codec; 0 is raw float64)
//	3       1     flags (bit 0: the trace section is present)
//	4       1     phase-span count (at most MaxSpans)
//	5       28    Iter, Epoch, WorkerID, Chunk, Chunks, RootGen and the
//	              element count, uint32 little-endian each
//	33      8     trace context, uint64 little-endian (only when flagged)
//	…             one record per span: name length (1 byte), name, seconds
//	              as little-endian IEEE-754 bits
//	…             payload: 8 bytes per element, little-endian IEEE-754, for
//	              the raw codec; otherwise the codec's byte string, running to
//	              the end of the sub-frame
//
// Sub-frames travel length-prefixed (uint32 big-endian). A wire frame is the
// marker byte 0x00, the body length (uint32 big-endian) and a body of one or
// more sub-frames — one for a Send, several for a SendBatch. Only the headers
// are encoded: a raw payload is the vector's own memory (hostorder.go), so the
// frame goes out as one gathered write of header, vector, header, vector…,
// and comes in with the payload read off the socket straight into a pooled
// vector — the connection's read buffer holds only what a header-sized read
// happened to bring with it. There is no other encoding of a params or
// gradient envelope: one the header cannot carry (a field outside uint32
// range, an auxiliary payload, a body over maxFrameBody) is refused at the
// sender with ErrMalformed, and a gob-encoded one is refused at the receiver.
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
	// frameMarker opens a binary wire frame. A gob message opens with its
	// length as a non-zero uvarint, so the byte is free.
	frameMarker = 0x00
	// wireHeaderLen is the marker plus the body length.
	wireHeaderLen = 5

	// subFrameVector is the one sub-frame kind; any other kind byte is
	// malformed.
	subFrameVector = 0x03

	vectorHeaderLen = 5 + 4*7
	flagTrace       = 1 << 0
	// maxVectorHeadLen bounds the header plus its optional sections: the
	// trace context and MaxSpans records with the longest encodable name.
	maxVectorHeadLen = vectorHeaderLen + 8 + MaxSpans*(1+math.MaxUint8+8)

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

// vectorFrameLen returns the encoded length of e's sub-frame, or an error
// wrapping ErrMalformed when the vector frame cannot carry e: not a params or
// gradient envelope, an auxiliary payload, a header value outside uint32
// range (the encoder would silently truncate it, and it would decode as a
// different frame), more spans than the header counts, or an inconsistent
// quantized payload. The body cap (encodeWireFrame) bounds the payload.
func vectorFrameLen(e *Envelope) (int, error) {
	if e.Type != MsgParams && e.Type != MsgGradient {
		return 0, fmt.Errorf("%w: %v is not a vector message", ErrMalformed, e.Type)
	}
	if e.Assign != nil || e.Telemetry != nil || e.Blob != nil || e.Part != 0 {
		return 0, fmt.Errorf("%w: %v carries a payload the vector frame has no field for", ErrMalformed, e.Type)
	}
	if len(e.Spans) > MaxSpans {
		return 0, fmt.Errorf("%w: %v carries %d phase spans (cap %d)", ErrMalformed, e.Type, len(e.Spans), MaxSpans)
	}
	for _, v := range [...]int{e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen} {
		if v < 0 || v > math.MaxInt32 {
			return 0, fmt.Errorf("%w: %v header field %d outside the frame's range", ErrMalformed, e.Type, v)
		}
	}
	n := vectorHeaderLen
	if e.Trace != 0 {
		n += 8
	}
	for _, sp := range e.Spans {
		if len(sp.Phase) > math.MaxUint8 {
			return 0, fmt.Errorf("%w: phase span name of %d bytes", ErrMalformed, len(sp.Phase))
		}
		n += 1 + len(sp.Phase) + 8
	}
	if e.Codec != 0 || len(e.Quant) > 0 || e.QuantLen != 0 {
		if !grad.Codec(e.Codec).Valid() || e.Codec == 0 || len(e.Quant) == 0 || len(e.Vector) != 0 ||
			e.QuantLen < 1 || e.QuantLen > MaxVectorLen {
			return 0, fmt.Errorf("%w: %v codec %d with a %d-byte payload of %d elements and %d raw ones",
				ErrMalformed, e.Type, e.Codec, len(e.Quant), e.QuantLen, len(e.Vector))
		}
		n += len(e.Quant)
	} else {
		n += 8 * len(e.Vector)
	}
	return n, nil
}

// appendSubFrame appends e, which vectorFrameLen accepted, as one
// length-prefixed sub-frame. A payload that scattered returns is left out —
// the length prefix counts it all the same — for the writer to send right
// behind these bytes.
func appendSubFrame(dst []byte, e *Envelope) []byte {
	at := len(dst)
	count, owed := len(e.Vector), 0
	if len(e.Quant) > 0 {
		count = e.QuantLen
	}
	var flags byte
	if e.Trace != 0 {
		flags |= flagTrace
	}
	dst = append(dst, 0, 0, 0, 0, subFrameVector, byte(e.Type), e.Codec, flags, byte(len(e.Spans)))
	for _, v := range [...]int{e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen, count} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	if e.Trace != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, e.Trace)
	}
	for _, sp := range e.Spans {
		dst = append(dst, byte(len(sp.Phase)))
		dst = append(dst, sp.Phase...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sp.Seconds))
	}
	switch {
	case len(e.Quant) > 0:
		dst = append(dst, e.Quant...)
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
// envelope the vector frame cannot carry, or a body over maxFrameBody, is an
// error wrapping ErrMalformed, and nothing is encoded.
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
// entries are skipped). The vector frame's header is encoded once, and every
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
	e, err := fr.vector(n)
	if err != nil && errors.Is(err, ErrMalformed) {
		err = fmt.Errorf("batch sub-frame %d: %w", i, err)
	}
	return e, err
}

// vector decodes one sub-frame of n bytes. Every declared size — the span
// count, the element count, the payload length the sub-frame leaves room for
// — is checked against its cap and against n before a buffer is taken, so a
// hostile header costs no allocation.
func (fr *frameReader) vector(n int) (*Envelope, error) {
	// The header and its optional sections fit one peek; the payload follows.
	head, err := fr.peek(min(n, maxVectorHeadLen))
	if err != nil {
		return nil, err
	}
	if len(head) < vectorHeaderLen {
		return nil, fmt.Errorf("%w: vector sub-frame header truncated (%d bytes)", ErrMalformed, n)
	}
	e := &Envelope{Type: MsgType(head[1]), Codec: head[2]}
	flags, spans := head[3], int(head[4])
	u32 := func(i int) int { return int(binary.LittleEndian.Uint32(head[5+4*i:])) }
	e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen = u32(0), u32(1), u32(2), u32(3), u32(4), u32(5)
	count := u32(6)
	at := vectorHeaderLen
	if (e.Type != MsgParams && e.Type != MsgGradient) || flags&^flagTrace != 0 || spans > MaxSpans || count > MaxVectorLen {
		return nil, fmt.Errorf("%w: vector sub-frame type %d flags %#x with %d spans, %d elements", ErrMalformed, int(e.Type), flags, spans, count)
	}
	truncated := func() (*Envelope, error) {
		return nil, fmt.Errorf("%w: vector sub-frame trace or span section truncated", ErrMalformed)
	}
	if flags&flagTrace != 0 {
		if at+8 > len(head) {
			return truncated()
		}
		e.Trace = binary.LittleEndian.Uint64(head[at:])
		at += 8
	}
	for i := 0; i < spans; i++ {
		if at >= len(head) || at+1+int(head[at])+8 > len(head) {
			return truncated()
		}
		end := at + 1 + int(head[at]) + 8
		e.Spans = append(e.Spans, PhaseSpan{
			Phase:   string(head[at+1 : end-8]),
			Seconds: math.Float64frombits(binary.LittleEndian.Uint64(head[end-8:])),
		})
		at = end
	}
	fr.discard(at)
	rest := n - at
	// Everything validate can judge without the payload, before taking a
	// buffer for it.
	if err := e.validate(); err != nil {
		return nil, err
	}
	if e.Codec == byte(grad.CodecRaw) {
		if rest != 8*count {
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

// quantized reads a codec payload of n bytes (see allocStep) and dequantizes
// its count elements into a pooled vector, taken once the payload is in —
// int8 spends a byte per element, so that too is bounded by the bytes
// received. A payload the codec rejects is a protocol violation.
func (fr *frameReader) quantized(count int, c grad.Codec, n int) ([]float64, error) {
	q := grad.GetBytes(min(n, allocStep))
	defer func() { grad.PutBytes(q) }()
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
			return nil, err
		}
	}
	vec := grad.GetBuffer(count)
	if err := grad.DequantizeInto(vec, c, q); err != nil {
		grad.PutBuffer(vec)
		return nil, fmt.Errorf("%w: %s gradient payload: %v", ErrMalformed, c, err)
	}
	return vec, nil
}
