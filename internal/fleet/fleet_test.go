package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/node"
	"github.com/hetgc/hetgc/internal/obs"
)

// twoNodeFleet starts two real telemetry servers with distinct histories
// and returns their scrape plan plus a third, dead endpoint.
func twoNodeFleet(t *testing.T) ([]Node, func()) {
	t.Helper()
	mRoot := obs.New()
	mRoot.OnIteration(0, 0.050)
	mRoot.OnIteration(0, 0.070)
	mRoot.OnPromotion(2, 7)
	mRoot.Event(obs.Event{Kind: obs.EvFence, Iter: 7, Detail: "deposed root generation 1"})
	mRoot.BindWireCodecs([]string{"raw", "int8"}, func(c byte) (uint64, uint64, uint64, uint64) {
		if c == 1 {
			return 0, 0, 0, 4096
		}
		return 0, 0, 0, 0
	})

	mWorker := obs.New()
	mWorker.Event(obs.Event{Kind: obs.EvRejoin, Iter: 3, Member: 2})
	mWorker.BindWireCodecs([]string{"raw", "int8"}, func(c byte) (uint64, uint64, uint64, uint64) {
		if c == 1 {
			return 0, 0, 0, 1024
		}
		return 0, 0, 0, 100
	})

	sRoot, err := obs.NewServer("127.0.0.1:0", mRoot)
	if err != nil {
		t.Fatal(err)
	}
	sWorker, err := obs.NewServer("127.0.0.1:0", mWorker)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{
		{Name: "root", Addr: sRoot.Addr()},
		{Name: "worker", Addr: sWorker.Addr()},
		{Name: "ghost", Addr: "127.0.0.1:1"},
	}
	return nodes, func() { sRoot.Close(); sWorker.Close() }
}

func TestCollectMergesFleet(t *testing.T) {
	nodes, done := twoNodeFleet(t)
	defer done()

	sc := &Scraper{Timeout: 2 * time.Second}
	snap := sc.Collect(nodes, &LiveRoot{Gen: 2, Holder: "gcroot-standby", Addr: "10.0.0.2:7000"})

	if got := snap.Unhealthy(); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("unhealthy = %v, want [ghost]", got)
	}
	if !snap.Nodes[0].Healthy || !snap.Nodes[1].Healthy {
		t.Fatalf("live nodes reported unhealthy: %+v", snap.Nodes)
	}

	// The merged timeline is node-labeled and globally time-ordered.
	if len(snap.Timeline) != 3 {
		t.Fatalf("timeline has %d events, want 3: %+v", len(snap.Timeline), snap.Timeline)
	}
	for i := 1; i < len(snap.Timeline); i++ {
		if snap.Timeline[i].Time.Before(snap.Timeline[i-1].Time) {
			t.Fatalf("timeline out of order at %d: %+v", i, snap.Timeline)
		}
	}
	kinds := map[string]string{}
	for _, ev := range snap.Timeline {
		kinds[ev.Kind] = ev.Node
	}
	if kinds[obs.EvFailover] != "root" || kinds[obs.EvFence] != "root" || kinds[obs.EvRejoin] != "worker" {
		t.Fatalf("timeline attribution wrong: %v", kinds)
	}

	// Aggregates: root drives iterations; codec bytes sum across nodes.
	if snap.Agg.IterationsTotal != 2 {
		t.Fatalf("iterations = %v, want 2", snap.Agg.IterationsTotal)
	}
	if snap.Agg.IterationsPerSec < 16 || snap.Agg.IterationsPerSec > 17 {
		t.Fatalf("iterations/sec = %v, want ~16.7 (2 iters over 0.12s)", snap.Agg.IterationsPerSec)
	}
	if got := snap.Agg.WireBytesOutByCodec["int8"]; got != 4096+1024 {
		t.Fatalf("int8 bytes = %v, want 5120", got)
	}
	if got := snap.Agg.WireBytesOutByCodec["raw"]; got != 100 {
		t.Fatalf("raw bytes = %v, want 100", got)
	}
	if snap.Agg.LeaseGenMax != 2 || snap.Agg.LeaseGenMin != 2 || snap.Agg.LeaseGenSkew() != 0 {
		t.Fatalf("lease gen min/max = %v/%v", snap.Agg.LeaseGenMin, snap.Agg.LeaseGenMax)
	}

	// The dashboard renders without panicking and names the dead node.
	var sb strings.Builder
	snap.WriteText(&sb, 10)
	out := sb.String()
	for _, want := range []string{"ghost", "UNHEALTHY", "generation 2", "int8", "failover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	m := obs.New()
	m.OnIteration(3, 0.25)
	m.OnContribution(1, 4, 0.125)
	m.OnErasure(0, 2, obs.RDead)
	var sb strings.Builder
	if err := m.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(sb.String())
	if err != nil {
		t.Fatalf("parse real exposition: %v", err)
	}
	iters := fams[obs.MIterationsTotal]
	if len(iters) != 1 || iters[0].Value != 1 {
		t.Fatalf("iterations family = %+v", iters)
	}
	var found bool
	for _, s := range fams[obs.MErasuresTotal] {
		if s.Labels[obs.LReason] == obs.RDead && s.Labels[obs.LMember] == "2" && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("erasure sample missing: %+v", fams[obs.MErasuresTotal])
	}
	if _, ok := fams[obs.MContribSeconds+"_sum"]; !ok {
		t.Fatalf("histogram sum series missing; families: %d", len(fams))
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"metric{unterminated=\"x 1",
		"metric 1 2 3 junk notafloat",
		"metric{novalue} 1",
	} {
		if _, err := ParseExposition(bad); err == nil {
			t.Fatalf("ParseExposition(%q) accepted garbage", bad)
		}
	}
}

func TestDiscoverFromRoster(t *testing.T) {
	r, err := node.ParseRoster([]byte(`
root = "10.0.0.1:7000"
standbys = ["10.0.0.2:7000"]
workers = 4
metrics = ["10.0.0.1:9100", "10.0.0.2:9100", "10.0.0.3:9100"]
`))
	if err != nil {
		t.Fatal(err)
	}
	nodes, root, err := Discover(r, "")
	if err != nil {
		t.Fatal(err)
	}
	if root != nil {
		t.Fatalf("live root without a checkpoint dir: %+v", root)
	}
	if len(nodes) != 3 || nodes[0].Addr != "10.0.0.1:9100" || nodes[0].Name != "10.0.0.1:9100" {
		t.Fatalf("nodes = %+v", nodes)
	}

	// A roster without metrics endpoints is an actionable error.
	r2, err := node.ParseRoster([]byte(`
root = "10.0.0.1:7000"
workers = 4
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Discover(r2, ""); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("Discover without metrics key: err = %v", err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
	}
	for _, tc := range cases {
		if got := formatBytes(tc.in); got != tc.want {
			t.Errorf("formatBytes(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseLabelEscapes(t *testing.T) {
	labels, err := parseLabels(`detail="said \"hi\"",member="3"`)
	if err != nil {
		t.Fatal(err)
	}
	if labels["detail"] != `said "hi"` || labels["member"] != "3" {
		t.Fatalf("labels = %v", labels)
	}
	for _, bad := range []string{`novalue`, `k=unquoted`, `k="unterminated`} {
		if _, err := parseLabels(bad); err == nil {
			t.Errorf("parseLabels(%q) accepted garbage", bad)
		}
	}
}

func TestNodeStatusValue(t *testing.T) {
	ns := &NodeStatus{Node: Node{Name: "n"}, Metrics: map[string][]Sample{
		"fam": {{Value: 1}, {Labels: map[string]string{"x": "y"}, Value: 2}},
	}}
	if v, ok := ns.Value("fam"); !ok || v != 3 {
		t.Fatalf("Value(fam) = %v,%v", v, ok)
	}
	if _, ok := ns.Value("absent"); ok {
		t.Fatal("absent family reported present")
	}
}

func TestDiscoverReadsLease(t *testing.T) {
	r := &node.Roster{Root: "10.0.0.1:7000", Workers: 2, Metrics: []string{"10.0.0.1:9100"}}
	dir := t.TempDir()

	// No lease file yet: tolerated, not an error.
	if _, root, err := Discover(r, dir); err != nil || root != nil {
		t.Fatalf("empty checkpoint dir: root=%+v err=%v", root, err)
	}

	lease, err := ha.Acquire(dir, "gcroot-1", "10.0.0.1:7000", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	_ = lease
	_, root, err := Discover(r, dir)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil || root.Gen != 1 || root.Holder != "gcroot-1" || root.Addr != "10.0.0.1:7000" || root.Expired {
		t.Fatalf("live root = %+v, want gen-1 gcroot-1", root)
	}

	// A corrupt token is a loud error, never a silently rootless dashboard.
	if err := os.WriteFile(filepath.Join(dir, ha.LeaseFile), []byte("not a lease"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Discover(r, dir); err == nil {
		t.Fatal("corrupt lease token accepted")
	}
}
