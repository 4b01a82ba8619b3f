// Frame batching: coalesce several params or gradient envelopes into one
// wire frame so that a high-fan-in sender (a chunked gradient upload) pays
// one write per iteration instead of one per message. A batch is one wire
// frame holding one sub-frame per envelope (see frame.go), assembled in a
// pooled buffer, so steady-state batching does not allocate. Control
// envelopes are never batched: each is a frame of its own.
package transport

import "fmt"

// SendBatch coalesces the given params or gradient envelopes into a single
// wire frame and writes it with one write. Receivers observe the identical
// sub-frame sequence from consecutive Recv calls — batching is invisible above
// the transport, and a one-envelope batch is exactly a Send. An empty slice is
// a no-op. A control message, or an envelope the frame cannot carry, refuses
// the whole batch with an error wrapping ErrMalformed, and nothing is written.
func (c *Conn) SendBatch(envs []*Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	for _, e := range envs {
		if e.Type != MsgParams && e.Type != MsgGradient {
			return fmt.Errorf("%w: %v in a batch (params and gradients only)", ErrMalformed, e.Type)
		}
	}
	return c.sendFrame(envs...)
}

// ChunkGradient splits one gradient upload into chunked MsgGradient
// sub-frames of at most chunkLen elements each, ready for SendBatch: the
// receiver reassembles them with JoinChunks. Every chunk shares the
// template's Iter/Epoch/WorkerID. A template's trace context and phase
// spans ride only the FINAL chunk: spans there is the protocol rule, and the
// receiver stitches one echo per upload, not one per chunk. chunkLen <= 0,
// or a vector that fits in a single chunk, yields one unchunked frame.
func ChunkGradient(tmpl Envelope, vec []float64, chunkLen int) []*Envelope {
	tmpl.Type = MsgGradient
	tmpl.Assign, tmpl.Telemetry = nil, nil
	trace, spans := tmpl.Trace, tmpl.Spans
	tmpl.Trace, tmpl.Spans = 0, nil
	out := chunk(tmpl, len(vec), chunkLen, func(e *Envelope, lo, hi int) { e.Vector = vec[lo:hi] })
	last := out[len(out)-1]
	last.Trace, last.Spans = trace, spans
	if len(out) == 1 {
		last.Chunks = 0 // one piece is an unchunked upload
	}
	return out
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
	return chunk(tmpl, len(blob), chunkLen, func(e *Envelope, lo, hi int) { e.Blob = blob[lo:hi] })
}

// chunk returns copies of tmpl numbered Chunk of Chunks, one per piece
// [lo, hi) of n elements at most chunkLen long — a single piece when chunkLen
// <= 0 or n fits — each with its piece set.
func chunk(tmpl Envelope, n, chunkLen int, set func(e *Envelope, lo, hi int)) []*Envelope {
	if chunkLen <= 0 || n <= chunkLen {
		chunkLen = max(n, 1)
	}
	out := make([]*Envelope, max((n+chunkLen-1)/chunkLen, 1))
	for i := range out {
		e := tmpl
		e.Chunk, e.Chunks = i, len(out)
		set(&e, i*chunkLen, min((i+1)*chunkLen, n))
		out[i] = &e
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
