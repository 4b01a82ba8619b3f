package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
)

// TestControlFrameRoundTrip sends every control message of the protocol, each
// followed by a params frame, and checks that the control message arrives
// field for field and that the params frame behind it still decodes. Slices
// are compared by length and content, never by nil-ness.
func TestControlFrameRoundTrip(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5a, 0x00, 0xff}, 40)
	chunks := ChunkBlob(Envelope{Part: 5, RootGen: 3}, blob, 50)
	if len(chunks) != 3 {
		t.Fatalf("ChunkBlob made %d chunks, want 3", len(chunks))
	}
	msgs := []*Envelope{
		{Type: MsgHello, WorkerID: HelloNewWorker},
		{Type: MsgHello, WorkerID: 7},
		{Type: MsgHello, WorkerID: 4, Codec: byte(grad.CodecInt8)},
		{Type: MsgReassign, Epoch: 3, RootGen: 2, Assign: &Assignment{
			WorkerID: 2, Partitions: []int{0, 3, 5}, RowCoeffs: []float64{1, -0.5, 0.25}, K: 6, S: 1}},
		{Type: MsgReassign, Epoch: 4, Assign: &Assignment{WorkerID: 1, K: 4, S: 1}},
		{Type: MsgTelemetry, Iter: 9, Epoch: 3, WorkerID: 2, RootGen: 2, Trace: 0x8002_0003_0000_0009,
			Telemetry: &Telemetry{ComputeSeconds: 0.125, UploadSeconds: 0.002, Partitions: 3},
			Spans:     []PhaseSpan{{Phase: "compute", Seconds: 0.12}, {Phase: "upload", Seconds: 0.002}}},
		{Type: MsgPartitionReq, Part: 5},
		{Type: MsgPartition, Part: 5},
		chunks[0], chunks[1], chunks[2],
		{Type: MsgShutdown, RootGen: 3},
	}
	sender, receiver := pipePair(t)
	errc := make(chan error, 1)
	go func() {
		for i, e := range msgs {
			if err := sender.Send(e); err != nil {
				errc <- err
				return
			}
			if err := sender.Send(&Envelope{Type: MsgParams, Iter: i + 1, Vector: []float64{float64(i), -2}}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	var parts []*Envelope
	for i, want := range msgs {
		got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("message %d (%v): %v", i, want.Type, err)
		}
		sameControl(t, i, got, want)
		if got.Type == MsgPartition && got.Chunks > 0 {
			parts = append(parts, got)
		}
		params, err := receiver.Recv()
		if err != nil {
			t.Fatalf("params behind message %d (%v): %v", i, want.Type, err)
		}
		if params.Type != MsgParams || params.Iter != i+1 || len(params.Vector) != 2 ||
			params.Vector[0] != float64(i) || params.Vector[1] != -2 {
			t.Fatalf("params behind message %d (%v) arrived as %+v", i, want.Type, params)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	joined, err := JoinBlobChunks(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined, blob) {
		t.Fatalf("reassembled blob of %d bytes differs from the %d sent", len(joined), len(blob))
	}
}

// sameControl fails the test unless got carries every field of control
// message i exactly as want does.
func sameControl(t *testing.T, i int, got, want *Envelope) {
	t.Helper()
	if got.Type != want.Type || got.Iter != want.Iter || got.WorkerID != want.WorkerID ||
		got.Epoch != want.Epoch || got.RootGen != want.RootGen || got.Chunk != want.Chunk ||
		got.Chunks != want.Chunks || got.Part != want.Part || got.Codec != want.Codec ||
		got.Trace != want.Trace || got.QuantLen != 0 || len(got.Quant) != 0 || len(got.Vector) != 0 {
		t.Fatalf("message %d header:\ngot  %+v\nwant %+v", i, got, want)
	}
	if !bytes.Equal(got.Blob, want.Blob) {
		t.Fatalf("message %d blob: got %d bytes, want %d", i, len(got.Blob), len(want.Blob))
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("message %d: %d spans, want %d", i, len(got.Spans), len(want.Spans))
	}
	for j := range want.Spans {
		if got.Spans[j] != want.Spans[j] {
			t.Fatalf("message %d span %d: %+v, want %+v", i, j, got.Spans[j], want.Spans[j])
		}
	}
	if (got.Telemetry == nil) != (want.Telemetry == nil) ||
		(want.Telemetry != nil && *got.Telemetry != *want.Telemetry) {
		t.Fatalf("message %d telemetry: %+v, want %+v", i, got.Telemetry, want.Telemetry)
	}
	if (got.Assign == nil) != (want.Assign == nil) {
		t.Fatalf("message %d assignment: %+v, want %+v", i, got.Assign, want.Assign)
	}
	if a, w := got.Assign, want.Assign; w != nil {
		if a.WorkerID != w.WorkerID || a.K != w.K || a.S != w.S ||
			len(a.Partitions) != len(w.Partitions) || len(a.RowCoeffs) != len(w.RowCoeffs) {
			t.Fatalf("message %d assignment: %+v, want %+v", i, a, w)
		}
		for j := range w.Partitions {
			if a.Partitions[j] != w.Partitions[j] || a.RowCoeffs[j] != w.RowCoeffs[j] {
				t.Fatalf("message %d assignment entry %d: %+v, want %+v", i, j, a, w)
			}
		}
	}
}

// TestControlPayloadGrowsAsItArrives: a partition or reassign sub-frame whose
// header, sub-frame and frame lengths consistently declare a payload of about
// 1 GiB, of which 64 KiB arrive, ends in the stream's EOF, and the decoder's
// buffer follows the bytes received (one allocStep), not the declaration.
func TestControlPayloadGrowsAsItArrives(t *testing.T) {
	cases := []struct {
		e        *Envelope
		declared int // elements
	}{
		{&Envelope{Type: MsgPartition, Part: 1, Chunks: 1, Blob: make([]byte, 64<<10)}, 1 << 30},
		{&Envelope{Type: MsgReassign, Assign: &Assignment{Partitions: make([]int, 4<<10), RowCoeffs: make([]float64, 4<<10), K: 1}}, 1 << 26},
	}
	for _, tc := range cases {
		frame := referenceFrame(tc.e)
		sub := len(frame) - wireHeaderLen - 4
		head := sub - payloadLen(tc.e.Type, elements(tc.e))
		declared := head + payloadLen(tc.e.Type, tc.declared)
		binary.LittleEndian.PutUint32(frame[wireHeaderLen+4+vectorHeaderLen-4:], uint32(tc.declared))
		wireOrder.PutUint32(frame[wireHeaderLen:], uint32(declared))
		wireOrder.PutUint32(frame[1:], uint32(4+declared))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewConn(&memConn{r: bytes.NewReader(frame)}).Recv()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%v declaring %d elements over %d bytes: %v, want io.ErrUnexpectedEOF", tc.e.Type, tc.declared, len(frame), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocStep+1<<20 {
			t.Fatalf("%v declaring %d elements over %d bytes made the decoder allocate %d MiB", tc.e.Type, tc.declared, len(frame), grew>>20)
		}
	}
}
