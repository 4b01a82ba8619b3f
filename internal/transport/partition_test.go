package transport

import (
	"bytes"
	"errors"
	"testing"
)

func TestPartitionFrameRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	req := &Envelope{Type: MsgPartitionReq, Part: 3}
	if err := client.Send(req); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPartitionReq || got.Part != 3 {
		t.Fatalf("got %v part %d, want partition-req part 3", got.Type, got.Part)
	}

	blob := bytes.Repeat([]byte{0xAB, 0x01, 0x7F}, 100)
	frames := ChunkBlob(Envelope{Part: 3, RootGen: 2}, blob, 64)
	if len(frames) != (len(blob)+63)/64 {
		t.Fatalf("ChunkBlob produced %d frames", len(frames))
	}
	for _, f := range frames {
		if err := server.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	var recvd []*Envelope
	for range frames {
		e, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e.RootGen != 2 {
			t.Fatalf("chunk lost RootGen: %d", e.RootGen)
		}
		recvd = append(recvd, e)
	}
	joined, err := JoinBlobChunks(recvd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined, blob) {
		t.Fatalf("reassembled blob differs: %d vs %d bytes", len(joined), len(blob))
	}
}

func TestChunkBlobSmallPayloadIsSingleChunk(t *testing.T) {
	frames := ChunkBlob(Envelope{Part: 1}, []byte("tiny"), 1<<16)
	if len(frames) != 1 || frames[0].Chunks != 1 || frames[0].Chunk != 0 {
		t.Fatalf("small blob: got %d frames, chunks=%d", len(frames), frames[0].Chunks)
	}
	if got, err := JoinBlobChunks(frames); err != nil || string(got) != "tiny" {
		t.Fatalf("join: %q, %v", got, err)
	}
}

func TestPartitionValidation(t *testing.T) {
	bad := []*Envelope{
		{Type: MsgPartitionReq, Part: -1},
		{Type: MsgPartitionReq, Part: MaxPartIndex + 1},
		{Type: MsgPartitionReq, Vector: []float64{1}},
		{Type: MsgPartitionReq, Chunks: 2, Chunk: 0},
		{Type: MsgGradient, Part: 4, Vector: []float64{1}},                  // partition index on a non-data-plane frame
		{Type: MsgHello, WorkerID: -1, Blob: []byte{1}},                     // blob on a non-partition frame
		{Type: MsgPartition, Part: 1, Chunks: 1, Chunk: 0},                  // chunked data frame with empty blob
		{Type: MsgPartition, Part: 1, Blob: []byte{1}},                      // data without chunk framing
		{Type: MsgPartition, Part: 1, Chunks: 2, Chunk: 2, Blob: []byte{1}}, // chunk out of range
	}
	client, server := pipePair(t)
	for i, e := range bad {
		if err := e.validate(); err == nil {
			t.Fatalf("case %d (%v): validate accepted invalid frame", i, e.Type)
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("case %d: error %v does not wrap ErrMalformed", i, err)
		}
		_ = client // frames rejected before any wire use
	}
	// The not-served marker is valid and survives the wire.
	marker := &Envelope{Type: MsgPartition, Part: 7}
	if err := marker.validate(); err != nil {
		t.Fatalf("not-served marker rejected: %v", err)
	}
	if err := client.Send(marker); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPartition || got.Part != 7 || got.Chunks != 0 || len(got.Blob) != 0 {
		t.Fatalf("marker mangled: %+v", got)
	}
}

// TestPartitionFramesInBatch: a batch is a vector frame, so SendBatch refuses
// partition chunks; they travel one Send each and reassemble as before.
func TestPartitionFramesInBatch(t *testing.T) {
	client, server := pipePair(t)
	frames := ChunkBlob(Envelope{Part: 2}, bytes.Repeat([]byte{7}, 50), 16)
	if err := client.SendBatch(frames); !errors.Is(err, ErrMalformed) {
		t.Fatalf("SendBatch(partition chunks) = %v, want ErrMalformed", err)
	}
	for _, f := range frames {
		if err := client.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	var got []*Envelope
	for range frames {
		e, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	joined, err := JoinBlobChunks(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined, bytes.Repeat([]byte{7}, 50)) {
		t.Fatal("partition chunks mangled")
	}
}
