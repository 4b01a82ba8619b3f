package ha

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
)

func TestTokenRoundtrip(t *testing.T) {
	want := &Token{Gen: 7, Holder: "root-a", Addr: "127.0.0.1:4242", Expiry: time.Unix(0, 1_700_000_000_123_456_789)}
	got, err := DecodeToken(EncodeToken(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Gen != want.Gen || got.Holder != want.Holder || got.Addr != want.Addr || !got.Expiry.Equal(want.Expiry) {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", got, want)
	}
}

func TestDecodeTokenCorrupt(t *testing.T) {
	valid := EncodeToken(&Token{Gen: 3, Holder: "r", Addr: "a", Expiry: time.Now()})
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("NOTLEASE!"), valid[9:]...),
		"truncated": valid[:len(valid)-2],
		"flipped":   append(append([]byte{}, valid[:len(valid)-1]...), valid[len(valid)-1]^0xff),
		"zero gen":  EncodeToken(&Token{Gen: 0, Holder: "r", Addr: "a"}),
	}
	for name, data := range cases {
		if _, err := DecodeToken(data); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wrapping checkpoint.ErrCorrupt", name, err)
		}
	}
}

func TestAcquireRenewRelease(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadToken(dir); !errors.Is(err, ErrNoLease) {
		t.Fatalf("empty dir: err = %v, want ErrNoLease", err)
	}
	a, err := Acquire(dir, "root-a", "addr-a", time.Hour)
	if err != nil {
		t.Fatalf("acquire a: %v", err)
	}
	if a.Gen() != 1 {
		t.Fatalf("first generation = %d, want 1", a.Gen())
	}
	if got := a.Token(); got.Gen != 1 || got.Holder != "root-a" || got.Addr != "addr-a" {
		t.Fatalf("held token = %+v", got)
	}
	if a.TTL() != time.Hour {
		t.Fatalf("ttl = %s, want 1h", a.TTL())
	}
	// A different holder cannot steal an unexpired lease.
	if _, err := Acquire(dir, "root-b", "addr-b", time.Hour); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("steal: err = %v, want ErrLeaseHeld", err)
	}
	// The same holder re-acquiring (a restart) bumps the generation.
	a2, err := Acquire(dir, "root-a", "addr-a2", time.Hour)
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	if a2.Gen() != 2 {
		t.Fatalf("restart generation = %d, want 2", a2.Gen())
	}
	// The superseded lease object is now fenced.
	if err := a.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("old lease Verify = %v, want ErrFenced", err)
	}
	if err := a.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("old lease Renew = %v, want ErrFenced", err)
	}
	if err := a2.Renew(); err != nil {
		t.Fatalf("live renew: %v", err)
	}
	if err := a2.Check(); err != nil {
		t.Fatalf("live check: %v", err)
	}
	// Release expires the claim in place; a new holder acquires gen+1
	// immediately.
	if err := a2.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	b, err := Acquire(dir, "root-b", "addr-b", time.Hour)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if b.Gen() != 3 {
		t.Fatalf("post-release generation = %d, want 3", b.Gen())
	}
	tok, err := ReadToken(dir)
	if err != nil || tok.Addr != "addr-b" || tok.Holder != "root-b" {
		t.Fatalf("token after takeover = %+v, %v", tok, err)
	}
}

func TestExpiredLeaseTakeoverFencesZombie(t *testing.T) {
	dir := t.TempDir()
	a, err := Acquire(dir, "root-a", "addr-a", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// A never renewed: its claim lapsed, so B may take over.
	b, err := Acquire(dir, "root-b", "addr-b", time.Hour)
	if err != nil {
		t.Fatalf("takeover after expiry: %v", err)
	}
	if b.Gen() != a.Gen()+1 {
		t.Fatalf("takeover generation = %d, want %d", b.Gen(), a.Gen()+1)
	}
	// The zombie's in-memory token is expired, so Check falls through to
	// file verification and reports the fence.
	if err := a.Check(); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Check = %v, want ErrFenced", err)
	}
	// Fencing latches: Release must not clobber the new root's token.
	if err := a.Release(); err != nil {
		t.Fatalf("zombie release: %v", err)
	}
	tok, err := ReadToken(dir)
	if err != nil || tok.Gen != b.Gen() || tok.Holder != "root-b" {
		t.Fatalf("token after zombie release = %+v, %v — the zombie overwrote the live lease", tok, err)
	}
}

func TestAcquireRefusesCorruptLease(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LeaseFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Acquire(dir, "root-a", "addr", time.Hour); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("acquire over corrupt lease = %v, want wrapping checkpoint.ErrCorrupt", err)
	}
}

func TestStandbyPromotesOnExpiry(t *testing.T) {
	dir := t.TempDir()
	// Seed durable state the standby should tail.
	st, err := checkpoint.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(&checkpoint.Snapshot{Iter: 4, Epoch: 0, Step: 4, Params: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendIter(4, 0, 5); err != nil {
		t.Fatal(err)
	}
	st.Close()

	lease, err := Acquire(dir, "root-a", "addr-a", 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sb := NewStandby(StandbyConfig{DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir}, Poll: 5 * time.Millisecond})
	done := make(chan struct{})
	var prom *Promotion
	var promErr error
	go func() {
		defer close(done)
		prom, promErr = sb.Run(nil)
	}()
	// Keep the root alive across a few renewals, then stop renewing.
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := lease.Renew(); err != nil {
			t.Errorf("renew %d: %v", i, err)
		}
	}
	select {
	case <-done:
		t.Fatalf("standby promoted while the lease was live: %+v, %v", prom, promErr)
	default:
	}
	<-done // root stops renewing; TTL lapses; standby promotes
	if promErr != nil {
		t.Fatalf("standby: %v", promErr)
	}
	if prom == nil || prom.Deposed == nil || prom.Deposed.Gen != 1 {
		t.Fatalf("promotion = %+v, want deposed generation 1", prom)
	}
	if prom.State == nil || prom.State.LastIter != 4 || len(prom.State.Snap.Params) != 2 {
		t.Fatalf("promotion state = %+v, want hot copy at iter 4", prom.State)
	}
	if prom.Tails == 0 {
		t.Fatal("standby never refreshed its hot copy")
	}
	if sb.LastIter() != 4 {
		t.Fatalf("standby tailed up to iteration %d, want 4", sb.LastIter())
	}
	// The promoted master's own Acquire claims the next generation even
	// though the deposed token is still on disk.
	b, err := Acquire(dir, "root-b", "addr-b", time.Hour)
	if err != nil {
		t.Fatalf("promoted acquire: %v", err)
	}
	if b.Gen() != 2 {
		t.Fatalf("promoted generation = %d, want 2", b.Gen())
	}
}

func TestStandbyStops(t *testing.T) {
	dir := t.TempDir()
	if _, err := Acquire(dir, "root-a", "addr", time.Hour); err != nil {
		t.Fatal(err)
	}
	sb := NewStandby(StandbyConfig{DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir}, Poll: 2 * time.Millisecond})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		prom, err := sb.Run(stop)
		if prom != nil || err != nil {
			t.Errorf("stopped standby returned %+v, %v", prom, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
}
