package roster

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/transport"
)

// dialJoinFramed joins like dialJoin but over a socket with a small receive
// buffer, so a reader that stops reading backs the sender up quickly.
func dialJoinFramed(t testing.TB, addr string) (*transport.Conn, int) {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = raw.(*net.TCPConn).SetReadBuffer(64 << 10)
	conn := transport.NewConn(raw)
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil || ack.Type != transport.MsgHello {
		t.Fatalf("handshake ack: env=%+v err=%v", ack, err)
	}
	return conn, ack.WorkerID
}

// paramsSeen is one scripted member's report of a parameter broadcast.
type paramsSeen struct {
	member, iter int
	at           time.Time
}

// TestBroadcastNoHeadOfLine is straggler tolerance on the downlink: one
// member that stops reading must cost the others nothing. With m=4, s=1 and a
// frame larger than a socket buffer, the member FIRST in plan order stalls;
// the three behind it still receive the next iteration's parameters at
// unobstructed speed (the serial broadcast made them wait out the write
// timeout), the stalled member is marked dead once its own timeout expires,
// and Collect decodes from the remaining three.
func TestBroadcastNoHeadOfLine(t *testing.T) {
	const (
		m, s         = 4, 1
		dim          = 5 << 17 // a 5 MiB frame: above the 4 MiB send-buffer cap plus the 64 KiB receive buffer
		writeTimeout = 3 * time.Second
	)
	eng, _ := newTestEngine(t, m, s, func(c *Config) { c.WriteTimeout = writeTimeout })
	var stalled atomic.Int64 // member ID that stops reading after iteration 0
	seen := make(chan paramsSeen, 2*m)
	quiet := make(chan struct{}) // closed once the stalled member has stopped reading
	release := make(chan struct{})
	defer close(release)
	reply := make([]float64, dim)
	for i := 0; i < m; i++ {
		conn, id := dialJoinFramed(t, eng.Addr())
		go func() {
			defer conn.Close()
			epoch := -1
			for {
				env, err := conn.Recv()
				if err != nil {
					return
				}
				switch env.Type {
				case transport.MsgReassign:
					epoch = env.Epoch
				case transport.MsgParams:
					seen <- paramsSeen{member: id, iter: env.Iter, at: time.Now()}
					grad.PutBuffer(env.Vector)
					if conn.Send(&transport.Envelope{Type: transport.MsgGradient, Iter: env.Iter, Epoch: epoch, WorkerID: id, Vector: reply}) != nil {
						return
					}
					if int64(id) == stalled.Load() {
						close(quiet)
						<-release // alive, connected, not reading
						return
					}
				}
			}
		}()
	}
	if err := eng.WaitForMembers(m, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Migrate(0, "init")
	if err != nil {
		t.Fatal(err)
	}
	stalled.Store(int64(plan.Members[0]))
	params := make([]float64, dim)
	var stats Stats

	// Iteration 0, everyone reading: the unobstructed broadcast.
	start := time.Now()
	eng.BroadcastParams(plan, 0, params)
	unobstructed := time.Since(start)
	if _, _, ok := eng.Collect(plan, 0, dim, 10*time.Second, &stats); !ok {
		t.Fatal("iteration 0 did not decode")
	}
	<-quiet

	// Iteration 1: the first member in plan order is not reading.
	start = time.Now()
	eng.BroadcastParams(plan, 1, params)
	blocked := time.Since(start)
	for healthy := 0; healthy < m-1; {
		select {
		case got := <-seen:
			if got.iter != 1 {
				continue // iteration 0's receipts
			}
			if int64(got.member) == stalled.Load() {
				t.Fatalf("the stalled member read iteration 1's params")
			}
			if wait := got.at.Sub(start); wait > writeTimeout/2 {
				t.Errorf("member %d got iteration 1's params after %v: held up behind the stalled member (unobstructed broadcast %v, write timeout %v)", got.member, wait, unobstructed, writeTimeout)
			}
			healthy++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d healthy members received iteration 1's params", healthy, m-1)
		}
	}
	if blocked < writeTimeout*9/10 {
		t.Errorf("broadcast returned after %v: the stalled member was not given its %v write timeout", blocked, writeTimeout)
	}
	if d := eng.Deaths(); d != 1 {
		t.Errorf("deaths = %d, want the stalled member only", d)
	}
	coeffs, coded, ok := eng.Collect(plan, 1, dim, 10*time.Second, &stats)
	if !ok {
		t.Fatal("iteration 1 did not decode from the remaining three")
	}
	if coeffs[0] != 0 || coded[0] != nil {
		t.Errorf("decode used the stalled member's slot: coeff %v", coeffs[0])
	}
	t.Logf("unobstructed broadcast %v; with one stalled member %v", unobstructed, blocked)
}

// benchBroadcast measures one BroadcastParams of a dim-1e5 model to m
// loopback members: the engine's whole
// downlink cost per iteration (one encode, m concurrent writes, the join).
func benchBroadcast(b *testing.B, m int) {
	const dim = 100_000
	ctrl, err := elastic.NewController(elastic.Config{K: m, S: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(Config{Controller: ctrl, WriteTimeout: 5 * time.Second, K: m, S: 1}, lis)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Shutdown(false)
	for i := 0; i < m; i++ {
		conn, _ := dialJoinFramed(b, eng.Addr())
		go func() {
			defer conn.Close()
			for {
				env, err := conn.Recv()
				if err != nil {
					return
				}
				grad.PutBuffer(env.Vector)
			}
		}()
	}
	if err := eng.WaitForMembers(m, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	plan, err := eng.Migrate(0, "init")
	if err != nil {
		b.Fatal(err)
	}
	params := make([]float64, dim)
	for i := range params {
		params[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, _, _, before, _, _ := transport.Wire()
	for i := 0; i < b.N; i++ {
		eng.BroadcastParams(plan, i, params)
	}
	b.StopTimer()
	_, _, _, after, _, _ := transport.Wire()
	b.ReportMetric(float64(after-before)/float64(b.N), "wire-B/op")
}

func BenchmarkBroadcastParams(b *testing.B) {
	for _, m := range []int{4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchBroadcast(b, m) })
	}
}
