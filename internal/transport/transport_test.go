package transport

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{
		MsgHello:        "hello",
		MsgType(2):      "MsgType(2)",
		MsgParams:       "params",
		MsgGradient:     "gradient",
		MsgShutdown:     "shutdown",
		MsgTelemetry:    "telemetry",
		MsgReassign:     "reassign",
		MsgType(8):      "MsgType(8)",
		MsgType(9):      "MsgType(9)",
		MsgPartitionReq: "partition-req",
		MsgPartition:    "partition",
		MsgType(0):      "MsgType(0)",
		MsgType(42):     "MsgType(42)",
	}
	for mt, want := range cases {
		if mt.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(mt), mt.String(), want)
		}
	}
}

// pipePair returns two connected transport conns over loopback TCP.
func pipePair(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- conn
	}()
	client, err := Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestRecvRejectsMalformed(t *testing.T) {
	// Send refuses every one of these, so each is written as the bytes of
	// its frame.
	bad := []struct {
		name  string
		frame []byte
	}{
		{"unknown type", referenceFrame(&Envelope{Type: MsgType(99)})},
		{"retired assign number", referenceFrame(&Envelope{Type: MsgType(2), Assign: &Assignment{
			Partitions: []int{0}, RowCoeffs: []float64{1}, K: 4, S: 1}})},
		{"retired batch number", referenceFrame(&Envelope{Type: MsgType(8)})},
		{"negative iter", referenceFrame(&Envelope{Type: MsgTelemetry, Iter: -1})},
		{"negative epoch", referenceFrame(&Envelope{Type: MsgTelemetry, Epoch: -3})},
		{"assign array mismatch", referenceFrame(&Envelope{Type: MsgReassign, Assign: &Assignment{
			Partitions: []int{0, 1}, RowCoeffs: []float64{1}, K: 4, S: 1}})},
		{"assign bad k", referenceFrame(&Envelope{Type: MsgReassign, Assign: &Assignment{
			Partitions: []int{0}, RowCoeffs: []float64{1}, K: 0, S: 1}})},
		{"assign negative s", referenceFrame(&Envelope{Type: MsgReassign, Assign: &Assignment{
			Partitions: []int{0}, RowCoeffs: []float64{1}, K: 4, S: -1}})},
		{"assign partition out of range", referenceFrame(&Envelope{Type: MsgReassign, Assign: &Assignment{
			Partitions: []int{7}, RowCoeffs: []float64{1}, K: 4, S: 1}})},
		{"assign overfull", referenceFrame(&Envelope{Type: MsgReassign, Assign: &Assignment{
			Partitions: []int{0, 1, 0}, RowCoeffs: []float64{1, 1, 1}, K: 2, S: 0}})},
		{"reassign without payload", referenceFrame(&Envelope{Type: MsgReassign})},
		{"assign without payload", referenceFrame(&Envelope{Type: MsgReassign, Epoch: 1})},
		{"negative telemetry", referenceFrame(&Envelope{Type: MsgTelemetry, Telemetry: &Telemetry{Partitions: -1}})},
		{"vector on a control frame", referenceFrame(&Envelope{Type: MsgTelemetry, Vector: []float64{1}})},
		{"quantized payload on a control frame", referenceFrame(&Envelope{Type: MsgHello, WorkerID: 1, Quant: []byte{1}, QuantLen: 1})},
		{"negative root generation", referenceFrame(&Envelope{Type: MsgShutdown, RootGen: -1})},
		{"adopt without payload", referenceFrame(&Envelope{Type: MsgType(9)})},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			client, server := pipePair(t)
			if _, err := client.w.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			if _, err := server.Recv(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("Recv err = %v, want ErrMalformed", err)
			}
			// The stream stays in sync: a valid frame after the rejected one
			// is still received.
			if err := client.Send(&Envelope{Type: MsgParams, Iter: 1, Vector: []float64{1}}); err != nil {
				t.Fatal(err)
			}
			env, err := server.Recv()
			if err != nil || env.Type != MsgParams || env.Iter != 1 {
				t.Fatalf("follow-up frame = %+v, err %v", env, err)
			}
		})
	}
}

// TestSendRefusesUnframable: no silent fallback on the way out. A params or
// gradient envelope the vector frame cannot carry — a header field outside
// its uint32 range, more spans than it counts, a payload it has no field for,
// a body over maxFrameBody — is refused by Send, SendBatch and Broadcast alike
// with ErrMalformed, and nothing reaches the wire. So is a control message in
// a batch: batches are vector frames.
func TestSendRefusesUnframable(t *testing.T) {
	vec := []float64{1, 2}
	spans := make([]PhaseSpan, MaxSpans+1)
	for i := range spans {
		spans[i] = PhaseSpan{Phase: "compute", Seconds: 1}
	}
	// 256 sub-frames sharing one 8 MiB vector declare a body over 2 GiB
	// without holding one.
	shared := make([]float64, 1<<20)
	over := make([]*Envelope, maxFrameBody/(8*len(shared))+1)
	for i := range over {
		over[i] = &Envelope{Type: MsgGradient, Chunk: i, Chunks: len(over), Vector: shared}
	}
	cases := map[string][]*Envelope{
		"iter above MaxInt32":            {{Type: MsgParams, Iter: math.MaxInt32 + 1, Vector: vec}},
		"root generation above MaxInt32": {{Type: MsgParams, RootGen: math.MaxInt32 + 1, Vector: vec}},
		"chunk above MaxInt32":           {{Type: MsgGradient, Chunk: math.MaxInt32 + 1, Chunks: math.MaxInt32 + 2, Vector: vec}},
		"negative epoch":                 {{Type: MsgGradient, Epoch: -1, Vector: vec}},
		"more than MaxSpans spans":       {{Type: MsgGradient, Spans: spans, Vector: vec}},
		"span name over 255 bytes":       {{Type: MsgGradient, Spans: []PhaseSpan{{Phase: strings.Repeat("x", 256)}}, Vector: vec}},
		"telemetry payload":              {{Type: MsgGradient, Telemetry: &Telemetry{}, Vector: vec}},
		"codec byte over a raw payload":  {{Type: MsgParams, Codec: byte(grad.CodecInt8), Vector: vec}},
		"unknown codec":                  {{Type: MsgGradient, Codec: 99, Quant: []byte{1}, QuantLen: 1}},
		"body over maxFrameBody":         over,
		"telemetry in a batch":           {{Type: MsgParams, Vector: vec}, {Type: MsgTelemetry, Telemetry: &Telemetry{}}},
	}
	for name, envs := range cases {
		var out bytes.Buffer
		c := NewConn(&memConn{r: bytes.NewReader(nil), w: &out})
		sends := map[string]func() error{"SendBatch": func() error { return c.SendBatch(envs) }}
		if len(envs) == 1 {
			sends["Send"] = func() error { return c.Send(envs[0]) }
			sends["Broadcast"] = func() error { return Broadcast([]*Conn{nil, c}, envs[0], time.Second)[1] }
		}
		for via, send := range sends {
			if err := send(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s via %s: %v, want ErrMalformed", name, via, err)
			}
			if out.Len() != 0 {
				t.Fatalf("%s via %s: %d bytes reached the wire", name, via, out.Len())
			}
		}
	}
}

func TestTelemetryReassignRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	tel := &Telemetry{ComputeSeconds: 0.125, UploadSeconds: 0.001, Partitions: 3}
	if err := client.Send(&Envelope{Type: MsgTelemetry, Iter: 4, Epoch: 2, WorkerID: 1, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	env, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgTelemetry || env.Epoch != 2 || env.Telemetry == nil ||
		env.Telemetry.ComputeSeconds != 0.125 || env.Telemetry.Partitions != 3 {
		t.Fatalf("telemetry = %+v (%+v)", env, env.Telemetry)
	}
	assign := &Assignment{WorkerID: 1, Partitions: []int{0, 2}, RowCoeffs: []float64{1, -1}, K: 5, S: 1}
	if err := server.Send(&Envelope{Type: MsgReassign, Epoch: 3, Assign: assign}); err != nil {
		t.Fatal(err)
	}
	env, err = client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgReassign || env.Epoch != 3 || env.Assign == nil || env.Assign.K != 5 {
		t.Fatalf("reassign = %+v", env)
	}
}

// TestTelemetryNilIsZero pins the one decoding of a telemetry frame: its
// layout always holds the three numbers, so a nil Telemetry goes out as zeros
// and a received telemetry frame always has a non-nil Telemetry, all zero for
// a nil or an all-zero one sent. Readers cannot tell the two apart: the
// roster observes only Partitions > 0.
func TestTelemetryNilIsZero(t *testing.T) {
	client, server := pipePair(t)
	for _, tel := range []*Telemetry{nil, {}} {
		if err := client.Send(&Envelope{Type: MsgTelemetry, Iter: 3, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		env, err := server.Recv()
		if err != nil || env.Type != MsgTelemetry || env.Iter != 3 || env.Telemetry == nil || *env.Telemetry != (Telemetry{}) {
			t.Fatalf("sent telemetry %+v, received %+v (%v)", tel, env, err)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		env, err := conn.Recv()
		if err != nil {
			serverErr = err
			return
		}
		// Echo back with a gradient payload.
		serverErr = conn.Send(&Envelope{
			Type:     MsgGradient,
			Iter:     env.Iter,
			WorkerID: 3,
			Vector:   []float64{1.5, -2.5},
		})
	}()

	client, err := Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	assign := &Assignment{WorkerID: 3, Partitions: []int{1, 2}, RowCoeffs: []float64{0.5, -1}, K: 7, S: 1}
	if err := client.Send(&Envelope{Type: MsgReassign, Iter: 9, Assign: assign}); err != nil {
		t.Fatal(err)
	}
	got, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	if got.Type != MsgGradient || got.Iter != 9 || got.WorkerID != 3 {
		t.Fatalf("echo = %+v", got)
	}
	if len(got.Vector) != 2 || got.Vector[0] != 1.5 || got.Vector[1] != -2.5 {
		t.Fatalf("vector = %v", got.Vector)
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan *Envelope, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		env, err := conn.Recv()
		if err != nil {
			done <- nil
			return
		}
		done <- env
	}()
	client, err := Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	in := &Assignment{WorkerID: 1, Partitions: []int{5, 6, 0}, RowCoeffs: []float64{1, 2, 3}, K: 7, S: 2}
	if err := client.Send(&Envelope{Type: MsgReassign, Epoch: 2, Assign: in}); err != nil {
		t.Fatal(err)
	}
	env := <-done
	if env == nil || env.Assign == nil {
		t.Fatal("assignment lost")
	}
	out := env.Assign
	if out.WorkerID != 1 || out.K != 7 || out.S != 2 {
		t.Fatalf("assign = %+v", out)
	}
	for i, p := range in.Partitions {
		if out.Partitions[i] != p || out.RowCoeffs[i] != in.RowCoeffs[i] {
			t.Fatalf("payload corrupted: %+v", out)
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("expected dial failure")
	}
}

func TestDeadlineExpires(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Hold the connection open without sending.
		time.Sleep(500 * time.Millisecond)
		conn.Close()
	}()
	client, err := Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err == nil {
		t.Fatal("expected deadline error")
	}
}
