// Frame batching: coalesce several vector envelopes into one wire frame so
// that high-fan-in senders (a group master streaming its aggregated gradient
// chunks up the reduction tree every iteration) pay one write per iteration
// instead of one per message. A batch is one binary wire frame holding one
// vector sub-frame per envelope (see frame.go), assembled in a pooled buffer,
// so steady-state batching does not allocate. Control envelopes are never
// batched: each is its own gob frame.
package transport

import (
	"fmt"

	"github.com/hetgc/hetgc/internal/grad"
)

// SendBatch coalesces the given params or gradient envelopes into a single
// wire frame and writes it with one write. Receivers observe the identical
// sub-frame sequence from consecutive Recv calls — batching is invisible above
// the transport, and a one-envelope batch is exactly a Send. An empty slice is
// a no-op. An envelope the vector frame cannot carry — a control message
// included — refuses the whole batch with an error wrapping ErrMalformed, and
// nothing is written.
func (c *Conn) SendBatch(envs []*Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	return c.sendFrame(envs...)
}

// ChunkGradient splits one gradient upload into chunked MsgGradient
// sub-frames of at most chunkLen elements each, ready for SendBatch: the
// receiver reassembles them with JoinChunks. Every chunk shares the
// template's Iter/Epoch/WorkerID. A template's trace context and phase
// spans ride only the FINAL chunk: spans there is the protocol rule, and the
// receiver stitches one echo per upload, not one per chunk. The traced chunk
// is a vector sub-frame like the rest: the trace context and the spans have
// their own optional sections in its header. chunkLen <= 0, or a vector that
// fits in a single chunk, yields one unchunked frame.
func ChunkGradient(tmpl Envelope, vec []float64, chunkLen int) []*Envelope {
	tmpl.Type = MsgGradient
	tmpl.Assign, tmpl.Telemetry = nil, nil
	trace, spans := tmpl.Trace, tmpl.Spans
	tmpl.Trace, tmpl.Spans = 0, nil
	if chunkLen <= 0 || len(vec) <= chunkLen {
		e := tmpl
		e.Vector = vec
		e.Chunk, e.Chunks = 0, 0
		e.Trace, e.Spans = trace, spans
		return []*Envelope{&e}
	}
	chunks := (len(vec) + chunkLen - 1) / chunkLen
	out := make([]*Envelope, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > len(vec) {
			hi = len(vec)
		}
		e := tmpl
		e.Vector = vec[lo:hi]
		e.Chunk, e.Chunks = i, chunks
		if i == chunks-1 {
			e.Trace, e.Spans = trace, spans
		}
		out = append(out, &e)
	}
	return out
}

// ChunkGradientQuant splits one gradient upload into chunked MsgGradient
// sub-frames like ChunkGradient and encodes each chunk's payload with the
// run's codec into pooled buffers (ready for SendBatch; the receiver's
// transport dequantizes transparently, so it reassembles with JoinChunks as
// usual). Call ReleaseQuant on the frames once sent to recycle the payload
// buffers. CodecRaw yields plain ChunkGradient frames; an invalid codec is
// an error.
func ChunkGradientQuant(tmpl Envelope, vec []float64, chunkLen int, codec grad.Codec) ([]*Envelope, error) {
	if !codec.Valid() {
		return nil, fmt.Errorf("transport: unknown gradient codec %d", byte(codec))
	}
	frames := ChunkGradient(tmpl, vec, chunkLen)
	if codec == grad.CodecRaw {
		return frames, nil
	}
	for _, e := range frames {
		if len(e.Vector) == 0 {
			continue // empty uploads stay raw: QuantLen 0 is not framable
		}
		q, err := grad.AppendQuantized(grad.GetBytes(8*len(e.Vector)), codec, e.Vector)
		if err != nil {
			ReleaseQuant(frames)
			return nil, err
		}
		e.Codec, e.Quant, e.QuantLen = byte(codec), q, len(e.Vector)
		e.Vector = nil
	}
	return frames, nil
}

// ReleaseQuant returns the pooled quantized payload buffers of sent frames
// (as built by ChunkGradientQuant) to the codec byte pool. The frames must
// not be used afterwards.
func ReleaseQuant(envs []*Envelope) {
	for _, e := range envs {
		if e.Quant != nil {
			grad.PutBytes(e.Quant)
			e.Quant = nil
		}
	}
}

// ChunkBlob splits one data-plane payload into chunked MsgPartition frames
// of at most chunkLen bytes each, for one Send each; the receiver reassembles
// them with JoinBlobChunks. Every chunk shares the template's Part/Iter/RootGen. The
// result always has Chunks >= 1 (protocol rule: a MsgPartition carrying data
// is always chunk-framed; Chunks == 0 is the not-served marker), so chunkLen
// <= 0 or a blob that fits yields a single 1-of-1 chunk.
func ChunkBlob(tmpl Envelope, blob []byte, chunkLen int) []*Envelope {
	tmpl.Type = MsgPartition
	tmpl.Assign, tmpl.Telemetry, tmpl.Vector = nil, nil, nil
	if chunkLen <= 0 || len(blob) <= chunkLen {
		e := tmpl
		e.Blob = blob
		e.Chunk, e.Chunks = 0, 1
		return []*Envelope{&e}
	}
	chunks := (len(blob) + chunkLen - 1) / chunkLen
	out := make([]*Envelope, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > len(blob) {
			hi = len(blob)
		}
		e := tmpl
		e.Blob = blob[lo:hi]
		e.Chunk, e.Chunks = i, chunks
		out = append(out, &e)
	}
	return out
}

// JoinBlobChunks reassembles a chunked data-plane payload from its in-order
// MsgPartition frames (as produced by ChunkBlob): it concatenates the blob
// pieces and returns the full payload. It fails with ErrMalformed when the
// sequence is not exactly chunks 0..n-1 of a single partition (same
// Part/Chunks).
func JoinBlobChunks(envs []*Envelope) ([]byte, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("%w: no chunks to join", ErrMalformed)
	}
	first := envs[0]
	if len(envs) != first.Chunks {
		return nil, fmt.Errorf("%w: %d frames for %d chunks", ErrMalformed, len(envs), first.Chunks)
	}
	var dst []byte
	for i, e := range envs {
		if e.Type != MsgPartition || e.Chunk != i || e.Chunks != first.Chunks || e.Part != first.Part {
			return nil, fmt.Errorf("%w: partition chunk sequence broken at frame %d (%v part %d chunk %d/%d)", ErrMalformed, i, e.Type, e.Part, e.Chunk, e.Chunks)
		}
		dst = append(dst, e.Blob...)
	}
	return dst, nil
}

// JoinChunks reassembles a chunked gradient from its in-order sub-frames
// (as produced by ChunkGradient and delivered by Recv): it concatenates the
// chunk vectors into dst (grown as needed) and returns the full vector. It
// fails with ErrMalformed when the sequence is not exactly chunks 0..n-1 of
// a single upload (same Iter/Epoch/WorkerID/Chunks).
func JoinChunks(dst []float64, envs []*Envelope) ([]float64, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("%w: no chunks to join", ErrMalformed)
	}
	first := envs[0]
	if first.Chunks == 0 {
		if len(envs) != 1 {
			return nil, fmt.Errorf("%w: %d frames for an unchunked upload", ErrMalformed, len(envs))
		}
		return append(dst[:0], first.Vector...), nil
	}
	if len(envs) != first.Chunks {
		return nil, fmt.Errorf("%w: %d frames for %d chunks", ErrMalformed, len(envs), first.Chunks)
	}
	dst = dst[:0]
	for i, e := range envs {
		if e.Type != MsgGradient || e.Chunk != i || e.Chunks != first.Chunks ||
			e.Iter != first.Iter || e.Epoch != first.Epoch || e.WorkerID != first.WorkerID {
			return nil, fmt.Errorf("%w: chunk sequence broken at frame %d (%v chunk %d/%d)", ErrMalformed, i, e.Type, e.Chunk, e.Chunks)
		}
		dst = append(dst, e.Vector...)
	}
	return dst, nil
}
