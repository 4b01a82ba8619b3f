package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{
		MsgHello:        "hello",
		MsgAssign:       "assign",
		MsgParams:       "params",
		MsgGradient:     "gradient",
		MsgShutdown:     "shutdown",
		MsgTelemetry:    "telemetry",
		MsgReassign:     "reassign",
		MsgBatch:        "batch",
		MsgAdopt:        "adopt",
		MsgPartitionReq: "partition-req",
		MsgPartition:    "partition",
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
	bad := []struct {
		name string
		env  *Envelope
	}{
		{"unknown type", &Envelope{Type: MsgType(99)}},
		{"negative iter", &Envelope{Type: MsgParams, Iter: -1}},
		{"negative epoch", &Envelope{Type: MsgParams, Epoch: -3}},
		{"assign array mismatch", &Envelope{Type: MsgAssign, Assign: &Assignment{
			Partitions: []int{0, 1}, RowCoeffs: []float64{1}, K: 4, S: 1}}},
		{"assign bad k", &Envelope{Type: MsgAssign, Assign: &Assignment{
			Partitions: []int{0}, RowCoeffs: []float64{1}, K: 0, S: 1}}},
		{"assign negative s", &Envelope{Type: MsgAssign, Assign: &Assignment{
			Partitions: []int{0}, RowCoeffs: []float64{1}, K: 4, S: -1}}},
		{"assign partition out of range", &Envelope{Type: MsgAssign, Assign: &Assignment{
			Partitions: []int{7}, RowCoeffs: []float64{1}, K: 4, S: 1}}},
		{"assign overfull", &Envelope{Type: MsgAssign, Assign: &Assignment{
			Partitions: []int{0, 1, 0}, RowCoeffs: []float64{1, 1, 1}, K: 2, S: 0}}},
		{"reassign without payload", &Envelope{Type: MsgReassign}},
		{"assign without payload", &Envelope{Type: MsgAssign}},
		{"negative telemetry", &Envelope{Type: MsgTelemetry, Telemetry: &Telemetry{Partitions: -1}}},
		{"negative root generation", &Envelope{Type: MsgParams, RootGen: -1}},
		{"adopt without payload", &Envelope{Type: MsgAdopt}},
		{"adopt on non-adopt frame", &Envelope{Type: MsgParams, Adopt: &Adoption{Group: 0, Epoch: -1}}},
		{"adopt negative group", &Envelope{Type: MsgAdopt, Adopt: &Adoption{Group: -1, Epoch: -1}}},
		{"adopt impossible epoch", &Envelope{Type: MsgAdopt, Adopt: &Adoption{Group: 0, Epoch: -2}}},
		{"adopt unsorted members", &Envelope{Type: MsgAdopt, Adopt: &Adoption{Group: 0, Epoch: 0, Members: []int{3, 2}}}},
		{"adopt zero member id", &Envelope{Type: MsgAdopt, Adopt: &Adoption{Group: 0, Epoch: 0, Members: []int{0, 1}}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			client, server := pipePair(t)
			if err := client.Send(tc.env); err != nil {
				t.Fatal(err)
			}
			if _, err := server.Recv(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("Recv err = %v, want ErrMalformed", err)
			}
			// The gob stream stays in sync: a valid frame after the rejected
			// one is still received.
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
	if err := client.Send(&Envelope{Type: MsgAssign, Iter: 9, Assign: assign}); err != nil {
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
	if err := client.Send(&Envelope{Type: MsgAssign, Assign: in}); err != nil {
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
