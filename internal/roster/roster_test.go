package roster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/transport"
)

// newTestEngine builds an engine over a loopback listener with a k=4, s=1
// controller; mutate customises the config before construction.
func newTestEngine(t *testing.T, ctrlK, s int, mutate func(*Config)) (*Engine, *elastic.Controller) {
	t.Helper()
	ctrl, err := elastic.NewController(elastic.Config{K: ctrlK, S: s}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Controller: ctrl, WriteTimeout: time.Second, InboxSize: 256, K: ctrlK, S: s}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg, lis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Shutdown(false) })
	return eng, ctrl
}

// dialJoin performs the worker side of the join handshake and returns the
// connection and the assigned member ID. resume 0 requests a fresh slot.
func dialJoin(t *testing.T, addr string, resume int) (*transport.Conn, int) {
	t.Helper()
	conn, err := transport.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	helloID := transport.HelloNewWorker
	if resume > 0 {
		helloID = resume
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: helloID}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil || ack.Type != transport.MsgHello {
		t.Fatalf("handshake ack: env=%v err=%v", ack, err)
	}
	return conn, ack.WorkerID
}

func TestConfigValidation(t *testing.T) {
	ctrl, err := elastic.NewController(elastic.Config{K: 4, S: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	good := Config{Controller: ctrl, WriteTimeout: time.Second, K: 4, S: 1}
	bad := []struct {
		name   string
		mutate func(*Config)
		lis    *transport.Listener
	}{
		{"no controller", func(c *Config) { c.Controller = nil }, lis},
		{"no write timeout", func(c *Config) { c.WriteTimeout = 0 }, lis},
		{"bad k", func(c *Config) { c.K = 0 }, lis},
		{"bad s", func(c *Config) { c.S = -1 }, lis},
		{"no listener", nil, nil},
	}
	for _, tc := range bad {
		cfg := good
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		if _, err := New(cfg, tc.lis); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

func TestJoinAssignsStableIDs(t *testing.T) {
	eng, _ := newTestEngine(t, 4, 1, nil)
	_, id1 := dialJoin(t, eng.Addr(), 0)
	_, id2 := dialJoin(t, eng.Addr(), 0)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", id1, id2)
	}
	if n := eng.AliveCount(); n != 2 {
		t.Fatalf("alive = %d, want 2", n)
	}
	if j := eng.Joins(); j != 2 {
		t.Fatalf("joins = %d, want 2", j)
	}
}

// TestRejoinResumesIdentity pins the rejoin path: a dead member's ID is
// resumed on a fresh connection generation, and the join/death bookkeeping
// counts both events.
func TestRejoinResumesIdentity(t *testing.T) {
	eng, _ := newTestEngine(t, 4, 1, nil)
	conn, id := dialJoin(t, eng.Addr(), 0)
	_ = conn.Close()
	// The engine learns of the death when something processes the reader's
	// report; tests stand in for the control loop by noting it directly.
	eng.noteDeath(id, 0)
	if d := eng.Deaths(); d != 1 {
		t.Fatalf("deaths = %d, want 1", d)
	}
	_, got := dialJoin(t, eng.Addr(), id)
	if got != id {
		t.Fatalf("rejoin resumed member %d, want old identity %d", got, id)
	}
	eng.mu.Lock()
	m := eng.members[id]
	alive, gen := m.alive, m.gen
	eng.mu.Unlock()
	if !alive || gen != 1 {
		t.Fatalf("after rejoin: alive=%v gen=%d, want alive gen 1", alive, gen)
	}
	if j := eng.Joins(); j != 2 {
		t.Fatalf("joins = %d, want 2 (initial + rejoin)", j)
	}
	// Rejoining an identity that is still alive must NOT steal it: the
	// dialer gets a fresh slot instead.
	_, fresh := dialJoin(t, eng.Addr(), id)
	if fresh == id {
		t.Fatalf("hello for a live identity %d was allowed to take it over", id)
	}
}

// TestStaleGenerationCannotEvictRaceHammer is the generation-fencing
// hammer: across many kill/rejoin rounds, packs of concurrent stale death
// reports (every superseded generation, repeatedly) race the rejoin
// handshake — and must never evict the new generation or inflate the death
// count. Run under -race in CI.
func TestStaleGenerationCannotEvictRaceHammer(t *testing.T) {
	eng, _ := newTestEngine(t, 4, 1, nil)
	_, id := dialJoin(t, eng.Addr(), 0)
	const rounds = 40
	for round := 1; round <= rounds; round++ {
		// Kill the current generation legitimately…
		eng.noteDeath(id, round-1)
		// …then hammer every stale generation from concurrent readers while
		// the member rejoins.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := -1; i < round; i++ {
					eng.noteDeath(id, i-1)
				}
			}()
		}
		_, got := dialJoin(t, eng.Addr(), id)
		wg.Wait()
		if got != id {
			t.Fatalf("round %d: rejoin got id %d, want %d", round, got, id)
		}
		eng.mu.Lock()
		m := eng.members[id]
		alive, gen := m.alive, m.gen
		eng.mu.Unlock()
		if !alive || gen != round {
			t.Fatalf("round %d: alive=%v gen=%d — a stale reader evicted the new generation", round, alive, gen)
		}
	}
	if d := eng.Deaths(); d != rounds {
		t.Fatalf("deaths = %d, want exactly %d (stale reports must not count)", eng.Deaths(), rounds)
	}
	if n := eng.AliveCount(); n != 1 {
		t.Fatalf("alive = %d, want 1", n)
	}
}

// TestPriorHookSeedsController pins the unified prior policy: the Prior
// hook (the sharded runtime's planned-throughput lookup) feeds the
// controller's initial estimate per join sequence, and without a hook the
// controller picks its own prior.
func TestPriorHookSeedsController(t *testing.T) {
	priors := []float64{42, 7}
	eng, ctrl := newTestEngine(t, 4, 1, func(c *Config) {
		c.Prior = func(joinSeq int) float64 {
			if joinSeq < len(priors) {
				return priors[joinSeq]
			}
			return 0
		}
	})
	_, id1 := dialJoin(t, eng.Addr(), 0)
	_, id2 := dialJoin(t, eng.Addr(), 0)
	// The ack races the controller registration (bookkeeping lands after
	// the ack is sent); synchronise through the engine lock before touching
	// the controller directly.
	if err := eng.WaitForMembers(2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	r1, err := ctrl.Rate(id1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ctrl.Rate(id2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 42 || r2 != 7 {
		t.Fatalf("controller priors = %v, %v; want 42, 7", r1, r2)
	}
}

func TestWaitForMembersQuorum(t *testing.T) {
	eng, _ := newTestEngine(t, 4, 1, nil)
	err := eng.WaitForMembers(2, 50*time.Millisecond)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
	_, _ = dialJoin(t, eng.Addr(), 0)
	_, _ = dialJoin(t, eng.Addr(), 0)
	if err := eng.WaitForMembers(2, 2*time.Second); err != nil {
		t.Fatalf("quorum reached but WaitForMembers failed: %v", err)
	}
}

// TestMigrateDeliversEpochTaggedAssignments checks the migration broadcast
// end to end: every plan member receives a MsgReassign carrying the plan
// epoch, the advertised global K/S, and partition IDs translated through
// the engine's PartitionMap (the sharded local→global path).
func TestMigrateDeliversEpochTaggedAssignments(t *testing.T) {
	pmap := []int{10, 11, 12, 13}
	eng, _ := newTestEngine(t, 4, 1, func(c *Config) {
		c.K = 20
		c.PartitionMap = pmap
	})
	conn1, _ := dialJoin(t, eng.Addr(), 0)
	conn2, _ := dialJoin(t, eng.Addr(), 0)

	for epoch := 0; epoch < 2; epoch++ {
		if epoch == 1 {
			// A join+death churns the membership → the replan bumps the
			// epoch (the phantom member is dead, so no plan includes it).
			eng.cfg.Controller.AddMember(99, 1)
			eng.cfg.Controller.RemoveMember(99)
		}
		plan, err := eng.Migrate(epoch, "test")
		if err != nil {
			t.Fatal(err)
		}
		if plan.Epoch != epoch {
			t.Fatalf("plan epoch = %d, want %d", plan.Epoch, epoch)
		}
		for _, conn := range []*transport.Conn{conn1, conn2} {
			env, err := conn.Recv()
			if err != nil || env.Type != transport.MsgReassign {
				t.Fatalf("expected reassign, got %v (err %v)", env, err)
			}
			if env.Epoch != epoch {
				t.Fatalf("reassign epoch = %d, want %d", env.Epoch, epoch)
			}
			if env.Assign.K != 20 || env.Assign.S != 1 {
				t.Fatalf("assignment advertises k=%d s=%d, want 20, 1", env.Assign.K, env.Assign.S)
			}
			if len(env.Assign.Partitions) != len(env.Assign.RowCoeffs) {
				t.Fatalf("assignment has %d partitions but %d coefficients", len(env.Assign.Partitions), len(env.Assign.RowCoeffs))
			}
			for _, p := range env.Assign.Partitions {
				if p < 10 || p > 13 {
					t.Fatalf("partition %d not translated through the map %v", p, pmap)
				}
			}
		}
	}
}

// TestCollectFencing pins the unified fencing order of the shared collect
// loop: stale epochs are rejected first, then malformed shapes — before
// the iteration fence, so a truncated frame straggling in late is counted
// malformed, not as a mere straggler (the two pre-roster runtimes raced
// here).
func TestCollectFencing(t *testing.T) {
	eng, _ := newTestEngine(t, 2, 1, nil)
	conn1, _ := dialJoin(t, eng.Addr(), 0)
	conn2, _ := dialJoin(t, eng.Addr(), 0)
	plan, err := eng.Migrate(0, "initial")
	if err != nil {
		t.Fatal(err)
	}
	drainReassign := func(conn *transport.Conn) {
		if env, err := conn.Recv(); err != nil || env.Type != transport.MsgReassign {
			t.Fatalf("expected reassign, got %v (err %v)", env, err)
		}
	}
	drainReassign(conn1)
	drainReassign(conn2)

	const dim = 4
	send := func(conn *transport.Conn, iter, epoch int, vec []float64) {
		t.Helper()
		if err := conn.Send(&transport.Envelope{Type: transport.MsgGradient, Iter: iter, Epoch: epoch, Vector: vec}); err != nil {
			t.Fatal(err)
		}
	}
	// Stale epoch, wrong-shape straggler, telemetry, then a decodable
	// current-epoch upload.
	send(conn1, 0, 99, []float64{1, 2, 3, 4})
	send(conn1, 5, 0, []float64{1, 2}) // truncated AND from the wrong iteration
	if err := conn1.Send(&transport.Envelope{Type: transport.MsgTelemetry, Telemetry: &transport.Telemetry{ComputeSeconds: 0.01, Partitions: 1}}); err != nil {
		t.Fatal(err)
	}
	send(conn1, 0, 0, []float64{1, 2, 3, 4})

	var st Stats
	coeffs, coded, ok := eng.Collect(plan, 0, dim, 5*time.Second, &st)
	if !ok {
		t.Fatalf("collect failed to decode; stats %+v", st)
	}
	if len(coeffs) == 0 || len(coded) != plan.Strategy.M() {
		t.Fatalf("collect returned coeffs=%v coded=%d", coeffs, len(coded))
	}
	if st.StaleEpochRejected != 1 {
		t.Errorf("stale rejected = %d, want 1", st.StaleEpochRejected)
	}
	if st.MalformedSkipped != 1 {
		t.Errorf("malformed = %d, want 1 (mis-sized frames are malformed regardless of iteration)", st.MalformedSkipped)
	}
	if st.StragglersSkipped != 0 {
		t.Errorf("stragglers = %d, want 0", st.StragglersSkipped)
	}
	if st.TelemetrySamples != 1 {
		t.Errorf("telemetry = %d, want 1", st.TelemetrySamples)
	}
}

// TestCollectFencesNonFinite pins where a non-finite upload lands in the
// fence order, over real connections: a NaN encoded under a superseded epoch
// is a stale-epoch rejection; a +Inf straggling in from an older iteration
// and a NaN for the current one are both malformed, the straggler included;
// and the collect decodes from the finite uploads without the poisoned slot.
func TestCollectFencesNonFinite(t *testing.T) {
	eng, _ := newTestEngine(t, 3, 1, nil)
	conns, ids := make([]*transport.Conn, 3), make([]int, 3)
	for i := range conns {
		conns[i], ids[i] = dialJoin(t, eng.Addr(), 0)
	}
	plan, err := eng.Migrate(0, "initial")
	if err != nil {
		t.Fatal(err)
	}
	for _, conn := range conns {
		if env, err := conn.Recv(); err != nil || env.Type != transport.MsgReassign {
			t.Fatalf("expected reassign, got %v (err %v)", env, err)
		}
	}
	const dim, iter = 4, 3
	send := func(conn *transport.Conn, iter, epoch int, vec []float64) {
		t.Helper()
		if err := conn.Send(&transport.Envelope{Type: transport.MsgGradient, Iter: iter, Epoch: epoch, Vector: vec}); err != nil {
			t.Fatal(err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	send(conns[0], iter, plan.Epoch+1, []float64{1, nan, 3, 4})
	send(conns[0], iter-1, plan.Epoch, []float64{1, 2, 3, inf})
	send(conns[0], iter, plan.Epoch, []float64{nan, 2, 3, 4})
	// The poisoned frames queue ahead of the finite ones, so the collect
	// meets all three before it can decode.
	for deadline := time.Now().Add(5 * time.Second); len(eng.inbox) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 poisoned uploads reached the inbox", len(eng.inbox))
		}
	}
	send(conns[1], iter, plan.Epoch, []float64{1, 1, 1, 1})
	send(conns[2], iter, plan.Epoch, []float64{2, 2, 2, 2})

	var st Stats
	_, coded, ok := eng.Collect(plan, iter, dim, 5*time.Second, &st)
	if !ok {
		t.Fatalf("collect failed to decode from the finite uploads; stats %+v", st)
	}
	if st.StaleEpochRejected != 1 || st.MalformedSkipped != 2 || st.StragglersSkipped != 0 {
		t.Errorf("stale epoch %d, malformed %d, stragglers %d; want 1, 2, 0",
			st.StaleEpochRejected, st.MalformedSkipped, st.StragglersSkipped)
	}
	if g := coded[plan.SlotOf(ids[0])]; g != nil {
		t.Errorf("the poisoned member's slot holds %v", g)
	}
	for _, id := range ids[1:] {
		if coded[plan.SlotOf(id)] == nil {
			t.Errorf("member %d's finite upload is missing from the decode", id)
		}
	}
	var reasons []string
	for _, ms := range eng.TakeContribs(iter) {
		if ms.Member == ids[0] {
			reasons = append(reasons, ms.Reason)
		}
	}
	// Its erasures, then the decode's: a live member that never landed a
	// finite upload is absorbed as a straggler.
	want := []string{obs.RStaleEpoch, obs.RMalformed, obs.RMalformed, obs.RStraggler}
	if fmt.Sprint(reasons) != fmt.Sprint(want) {
		t.Errorf("member %d stitched %v, want %v", ids[0], reasons, want)
	}
}

// TestCollectFencesStaleGeneration pins the frame-level generation fence:
// a gradient that was already queued in the inbox when its member rejoined
// (so it carries a superseded connection generation) must be rejected, not
// credited to the live connection's slot — even when it is byte-for-byte a
// plausible current-epoch upload.
func TestCollectFencesStaleGeneration(t *testing.T) {
	eng, _ := newTestEngine(t, 2, 1, nil)
	conn1, id1 := dialJoin(t, eng.Addr(), 0)
	conn2, _ := dialJoin(t, eng.Addr(), 0)
	_ = conn1.Close()
	eng.noteDeath(id1, 0)
	conn1b, _ := dialJoin(t, eng.Addr(), id1) // rejoin: gen 1
	plan, err := eng.Migrate(0, "initial")
	if err != nil {
		t.Fatal(err)
	}
	for _, conn := range []*transport.Conn{conn1b, conn2} {
		if env, err := conn.Recv(); err != nil || env.Type != transport.MsgReassign {
			t.Fatalf("expected reassign, got %v (err %v)", env, err)
		}
	}
	const dim = 4
	// A poisoned upload from the superseded generation, injected as the old
	// readLoop would have queued it, racing the rejoin.
	eng.inbox <- msg{memberID: id1, gen: 0, env: &transport.Envelope{
		Type: transport.MsgGradient, Iter: 0, Epoch: 0, Vector: []float64{9e9, 9e9, 9e9, 9e9},
	}}
	eng.inbox <- msg{memberID: id1, gen: 0, malformed: true} // stale malformed marker
	// Honest current-generation uploads from both live connections.
	for _, conn := range []*transport.Conn{conn1b, conn2} {
		if err := conn.Send(&transport.Envelope{Type: transport.MsgGradient, Iter: 0, Epoch: 0, Vector: []float64{1, 1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	var st Stats
	_, coded, ok := eng.Collect(plan, 0, dim, 5*time.Second, &st)
	if !ok {
		t.Fatalf("collect failed; stats %+v", st)
	}
	if st.StaleConnRejected != 1 {
		t.Errorf("stale-generation frames rejected = %d, want 1", st.StaleConnRejected)
	}
	if st.MalformedSkipped != 0 {
		t.Errorf("malformed = %d, want 0 (the marker came from a superseded connection)", st.MalformedSkipped)
	}
	for slot, g := range coded {
		if g == nil {
			continue
		}
		for _, v := range g {
			if v > 1e6 {
				t.Fatalf("slot %d holds the stale-generation payload %v", slot, g)
			}
		}
	}
}

// TestHandshakeRejectsMalformedHello: peers that open with anything but a
// well-formed hello are dropped without ever becoming members.
func TestHandshakeRejectsMalformedHello(t *testing.T) {
	eng, _ := newTestEngine(t, 4, 1, nil)
	bad := []*transport.Envelope{
		{Type: transport.MsgParams, Vector: []float64{1}},
		{Type: transport.MsgHello, WorkerID: 0},
		{Type: transport.MsgHello, WorkerID: -2},
		{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker, Vector: []float64{1}},
		{Type: transport.MsgHello, WorkerID: 3, Epoch: 2},
	}
	// Send refuses a vector on a hello, so that case is written as the frame
	// bytes a peer would have to send: a hello sub-frame holding one float.
	helloWithVector := []byte{0, 0, 0, 0, 45, 0, 0, 0, 41, 3, byte(transport.MsgHello), 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	for i, env := range bad {
		raw, err := net.DialTimeout("tcp", eng.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn := transport.NewConn(raw)
		if len(env.Vector) > 0 && env.Type == transport.MsgHello {
			_, err = raw.Write(helloWithVector)
		} else {
			err = conn.Send(env)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Recv(); err == nil {
			t.Errorf("case %d: malformed hello %+v was acked", i, env)
		}
		_ = conn.Close()
	}
	if j := eng.Joins(); j != 0 {
		t.Fatalf("joins = %d after malformed hellos, want 0", j)
	}
	if n := eng.AliveCount(); n != 0 {
		t.Fatalf("alive = %d after malformed hellos, want 0", n)
	}
}

// TestCollectStitchesAbsorbedStragglers pins the erasure a decode absorbs: a
// live plan member whose upload the decode did not wait for is stitched as a
// partial straggler span at that moment — once, for that iteration — and its
// late upload, if it ever comes, is counted (StragglersSkipped) but stitches
// nothing more. A one-off stall so shows as exactly one erasure on the
// stalled member, as it does in the simulators' traces.
func TestCollectStitchesAbsorbedStragglers(t *testing.T) {
	eng, _ := newTestEngine(t, 3, 1, nil)
	conns, ids := make([]*transport.Conn, 3), make([]int, 3)
	for i := range conns {
		conns[i], ids[i] = dialJoin(t, eng.Addr(), 0)
	}
	plan, err := eng.Migrate(0, "initial")
	if err != nil {
		t.Fatal(err)
	}
	for _, conn := range conns {
		if env, err := conn.Recv(); err != nil || env.Type != transport.MsgReassign {
			t.Fatalf("expected reassign, got %v (err %v)", env, err)
		}
	}
	const dim = 4
	upload := func(i, iter int) {
		t.Helper()
		if err := conns[i].Send(&transport.Envelope{Type: transport.MsgGradient, Iter: iter, Epoch: plan.Epoch, Vector: []float64{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
	}
	// stragglers collects one iteration and returns the members stitched as
	// absorbed stragglers, checking that everyone else contributed in full.
	var st Stats
	stragglers := func(iter int) []int {
		t.Helper()
		if _, _, ok := eng.Collect(plan, iter, dim, 5*time.Second, &st); !ok {
			t.Fatalf("iteration %d did not decode; stats %+v", iter, st)
		}
		var out []int
		for _, ms := range eng.TakeContribs(iter) {
			switch {
			case !ms.Partial, ms.Reason == obs.RDead:
			case ms.Reason == obs.RStraggler:
				out = append(out, ms.Member)
			default:
				t.Errorf("iteration %d: member %d erased as %q", iter, ms.Member, ms.Reason)
			}
		}
		return out
	}

	// Iteration 0: member 2 stalls; the other two decode without it.
	upload(0, 0)
	upload(1, 0)
	if got := stragglers(0); len(got) != 1 || got[0] != ids[2] {
		t.Fatalf("iteration 0 absorbed %v, want member %d alone", got, ids[2])
	}
	// Iteration 1: member 2 is back — its late upload lands first, then its
	// real one — and this time member 1 is the one left behind.
	upload(2, 0)
	upload(2, 1)
	upload(0, 1)
	if got := stragglers(1); len(got) != 1 || got[0] != ids[1] {
		t.Fatalf("iteration 1 absorbed %v, want member %d alone: the stall was one iteration long", got, ids[1])
	}
	if st.StragglersSkipped != 1 {
		t.Errorf("late uploads received = %d, want member %d's one", st.StragglersSkipped, ids[2])
	}
	// Iteration 2: member 1 dies. A dead member's missing upload is no
	// straggler erasure: the code absorbed a death, and that span (RDead) is
	// stitched where the death is noted.
	_ = conns[1].Close()
	eng.noteDeath(ids[1], 0)
	upload(0, 2)
	upload(2, 2)
	if got := stragglers(2); len(got) != 0 {
		t.Fatalf("iteration 2 absorbed %v as stragglers, want none: member %d is dead", got, ids[1])
	}
}
