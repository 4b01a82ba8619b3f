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
// Sub-frames travel length-prefixed (uint32 big-endian). On a connection that
// negotiated CapVectorFrame a wire frame is the marker byte 0x00, the body
// length (uint32 big-endian) and a body of one or more sub-frames — one for a
// Send, several for a SendBatch. Only the headers are encoded: a raw payload
// is the vector's own memory (hostorder.go), so the frame goes out as one
// gathered write of header, vector, header, vector…, and comes in with the
// payload read off the socket straight into a pooled vector — the
// connection's read buffer holds only what a header-sized read happened to
// bring with it. An envelope the header cannot carry (a field outside uint32
// range, an auxiliary payload) takes the gob path, where the receiver's
// validation judges it.
//
// A peer that did not negotiate — a build from before the vector frame — is
// sent, and sends, exactly that build's bytes: gob envelopes, and for a
// SendBatch a gob MsgBatch whose Batch field holds gob-encoded sub-frames
// next to the two gradient layouts that build knew. Those are the vector
// sub-frame's seven uint32 fields and payload behind a shorter prefix —
// subFrameGradient alone for raw float64, subFrameQuant and the codec byte
// for a quantized payload — with no message type (always MsgGradient) and no
// optional sections, so a traced or span-carrying chunk goes as gob there.
// One encoder and one decoder serve all three prefixes.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

	// Sub-frame kinds. A binary wire frame holds subFrameVector only; the
	// other three are the vocabulary of a gob-carried batch, kept for peers
	// that did not negotiate the vector frame.
	subFrameGob      = 0x00
	subFrameGradient = 0x01
	subFrameQuant    = 0x02
	subFrameVector   = 0x03

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
// uint32; int32 range keeps the arithmetic portable). A larger payload takes
// the gob path.
const maxFrameBody = math.MaxInt32

// maxBatchFrames bounds the number of sub-frames Recv will unpack from one
// frame; an application-layer sanity cap like MaxVectorLen.
const maxBatchFrames = 1 << 20

// vectorFrameLen reports whether e fits the vector frame — a params or
// gradient envelope with no auxiliary payloads and every header value in
// uint32 range (a larger value would be silently truncated by the encoder
// and decode as a different frame) — and the sub-frame's encoded length.
func vectorFrameLen(e *Envelope) (int, bool) {
	if (e.Type != MsgParams && e.Type != MsgGradient) || e.Assign != nil || e.Telemetry != nil ||
		e.Batch != nil || e.Adopt != nil || e.Blob != nil || e.Part != 0 || e.Codecs != nil || e.Caps != 0 ||
		len(e.Spans) > MaxSpans {
		return 0, false
	}
	for _, v := range [...]int{e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen} {
		if v < 0 || v > math.MaxInt32 {
			return 0, false
		}
	}
	n := vectorHeaderLen
	if e.Trace != 0 {
		n += 8
	}
	for _, sp := range e.Spans {
		if len(sp.Phase) > math.MaxUint8 {
			return 0, false
		}
		n += 1 + len(sp.Phase) + 8
	}
	if e.Codec != 0 || len(e.Quant) > 0 || e.QuantLen != 0 {
		if !grad.Codec(e.Codec).Valid() || e.Codec == 0 || len(e.Quant) == 0 || len(e.Vector) != 0 ||
			e.QuantLen < 1 || e.QuantLen > math.MaxInt32 {
			return 0, false
		}
		n += len(e.Quant)
	} else {
		if len(e.Vector) > MaxVectorLen {
			return 0, false
		}
		n += 8 * len(e.Vector)
	}
	return n, n <= maxFrameBody-4
}

// prefixLen is the number of bytes a sub-frame kind puts before the seven
// uint32 header fields.
func prefixLen(kind byte) int {
	switch kind {
	case subFrameGradient:
		return 1
	case subFrameQuant:
		return 2
	}
	return 5
}

// legacyKind is the sub-frame kind that carries e to a peer that did not
// negotiate the vector frame: one of the two layouts it knows, or — for
// anything they cannot express — a gob sub-frame.
func legacyKind(e *Envelope) byte {
	if _, ok := vectorFrameLen(e); !ok || e.Type != MsgGradient || e.Trace != 0 || len(e.Spans) != 0 {
		return subFrameGob
	}
	if e.Codec != 0 {
		return subFrameQuant
	}
	return subFrameGradient
}

// appendSubFrame appends e as one length-prefixed sub-frame of the given
// binary kind. The caller checked vectorFrameLen (and, for the two layouts
// of legacyKind, that e needs no optional section). With scatter a payload
// that scattered returns is left out — the length prefix counts it all the
// same — for the writer to send right behind these bytes.
func appendSubFrame(dst []byte, e *Envelope, kind byte, scatter bool) []byte {
	at := len(dst)
	count, owed := len(e.Vector), 0
	if len(e.Quant) > 0 {
		count = e.QuantLen
	}
	var flags byte
	if e.Trace != 0 {
		flags |= flagTrace
	}
	dst = append(dst, 0, 0, 0, 0, kind)
	switch kind {
	case subFrameVector:
		dst = append(dst, byte(e.Type), e.Codec, flags, byte(len(e.Spans)))
	case subFrameQuant:
		dst = append(dst, e.Codec)
	}
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
	case scatter && scattered(e) != nil:
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
// returns of each, in a pooled buffer (return it with grad.PutBytes), or
// returns nil when any of them does not fit the vector frame.
func encodeWireFrame(envs ...*Envelope) []byte {
	body, owed := 0, 0
	for _, e := range envs {
		n, ok := vectorFrameLen(e)
		if !ok {
			return nil
		}
		body += 4 + n
		owed += len(scattered(e))
	}
	if body > maxFrameBody {
		return nil
	}
	buf := append(grad.GetBytes(wireHeaderLen+body-owed), frameMarker)
	buf = wireOrder.AppendUint32(buf, uint32(body))
	for _, e := range envs {
		buf = appendSubFrame(buf, e, subFrameVector, true)
	}
	return buf
}

// Broadcast sends e to every connection in conns (nil entries are skipped) —
// a parameter broadcast. The vector frame's header is encoded at most once,
// and every connection that negotiated it is written that header and e's
// vector, from the one copy of each; the rest are served e through gob. The
// writes fan out concurrently, each under a write deadline of timeout, so a
// peer whose socket is full delays no other, and are joined before Broadcast
// returns: errs[i] is conns[i]'s send error, and e may change again.
func Broadcast(conns []*Conn, e *Envelope, timeout time.Duration) (errs []error) {
	errs = make([]error, len(conns))
	var (
		once  sync.Once
		frame []byte
		wg    sync.WaitGroup
	)
	send := func(i int) {
		c := conns[i]
		_ = c.SetWriteDeadline(time.Now().Add(timeout))
		var shared []byte
		if c.frames.Load() {
			once.Do(func() { frame = encodeWireFrame(e) })
			shared = frame
		}
		if shared != nil {
			errs[i] = c.writeFrame(shared, e)
		} else {
			errs[i] = c.Send(e)
		}
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
	grad.PutBytes(frame)
	return errs
}

// byteSource is what the sub-frame decoder reads: a connection's buffered
// reader — whose Read, once drained, reads from the socket straight into a
// destination at least as large as its buffer — or a sliceSource over a
// batch payload that arrived inside a gob envelope. A Peek view is valid
// until the next call.
type byteSource interface {
	io.Reader
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// sliceSource serves a byte slice as a byteSource. The decoder never asks
// past the length it was given, so the methods cannot run short.
type sliceSource struct{ b []byte }

func (s *sliceSource) Peek(n int) ([]byte, error) { return s.b[:n], nil }

func (s *sliceSource) Discard(n int) (int, error) {
	s.b = s.b[n:]
	return n, nil
}

func (s *sliceSource) Read(p []byte) (int, error) {
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// frameReader decodes the sub-frames of one frame body. left counts the
// body's unread bytes: nothing is read past it, and skipping it leaves the
// source at the next frame.
type frameReader struct {
	src  byteSource
	left int
}

// peek returns a view of the next n unread bytes. Asking past the body's end
// means a length field lied: ErrMalformed.
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
// sub-frames, each validated. Truncated length prefixes or payloads, nested
// batches, unknown sub-frame kinds and sub-frames violating protocol
// invariants all reject the whole body with ErrMalformed — after consuming
// it, so src is left at the body's end. gobCarried marks the Batch payload of
// a gob MsgBatch — the sender did not negotiate the vector frame — and admits
// that build's vocabulary: gob sub-frames and the two gradient layouts. A
// binary wire frame holds vector sub-frames only, which bounds what a peer
// can make the decoder allocate. Any other error is src failing mid-body.
func decodeFrames(src byteSource, n int, gobCarried bool) ([]*Envelope, error) {
	fr := frameReader{src: src, left: n}
	var subs []*Envelope
	for fr.left > 0 {
		e, err := fr.next(len(subs), gobCarried)
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
func (fr *frameReader) next(i int, gobCarried bool) (*Envelope, error) {
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
	switch {
	case kind == subFrameVector && !gobCarried, (kind == subFrameGradient || kind == subFrameQuant) && gobCarried:
		e, err := fr.vector(n, kind)
		if err != nil && errors.Is(err, ErrMalformed) {
			err = fmt.Errorf("batch sub-frame %d: %w", i, err)
		}
		return e, err
	case kind == subFrameGob && gobCarried:
		frame, err := fr.peek(n)
		if err != nil {
			return nil, err
		}
		e := new(Envelope)
		if err := gob.NewDecoder(bytes.NewReader(frame[1:])).Decode(e); err != nil {
			return nil, fmt.Errorf("%w: batch sub-frame %d: %v", ErrMalformed, i, err)
		}
		fr.discard(n)
		if e.Type == MsgBatch {
			return nil, fmt.Errorf("%w: nested batch (sub-frame %d)", ErrMalformed, i)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("batch sub-frame %d: %w", i, err)
		}
		if e.Type == MsgGradient {
			countCodecIn(codecPayload(e))
			if err := e.dequantize(); err != nil {
				return nil, fmt.Errorf("batch sub-frame %d: %w", i, err)
			}
		}
		return e, nil
	}
	return nil, fmt.Errorf("%w: batch sub-frame %d has unknown kind %#x", ErrMalformed, i, kind)
}

// vector decodes one sub-frame of n bytes in the given binary kind. Every
// declared size — the span count, the element count, the payload length the
// sub-frame leaves room for — is checked against its cap and against n before
// a buffer is taken, so a hostile header costs no allocation.
func (fr *frameReader) vector(n int, kind byte) (*Envelope, error) {
	// The header and its optional sections fit one peek; the payload follows.
	head, err := fr.peek(min(n, maxVectorHeadLen))
	if err != nil {
		return nil, err
	}
	at := prefixLen(kind)
	if len(head) < at+4*7 {
		return nil, fmt.Errorf("%w: vector sub-frame header truncated (%d bytes)", ErrMalformed, n)
	}
	// The layouts of legacyKind are gradients with no optional section.
	e := &Envelope{Type: MsgGradient}
	var flags byte
	spans := 0
	switch kind {
	case subFrameVector:
		e.Type, e.Codec, flags, spans = MsgType(head[1]), head[2], head[3], int(head[4])
	case subFrameQuant:
		e.Codec = head[1]
	}
	fields := head[at:]
	u32 := func(i int) int { return int(binary.LittleEndian.Uint32(fields[4*i:])) }
	e.Iter, e.Epoch, e.WorkerID, e.Chunk, e.Chunks, e.RootGen = u32(0), u32(1), u32(2), u32(3), u32(4), u32(5)
	count := u32(6)
	at += 4 * 7
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
		// Every codec spends at least one byte per element and at most
		// maxQuantBytesPerElem.
		if e.Type != MsgGradient || count < 1 || rest < count || rest > maxQuantBytesPerElem*count+16 {
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
// every codec spends a byte per element, so that too is bounded by the bytes
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
