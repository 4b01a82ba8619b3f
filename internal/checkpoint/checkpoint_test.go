package checkpoint

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
)

func fullSnapshot() *Snapshot {
	return &Snapshot{
		Iter: 12, Epoch: 3, Step: 12, Clock: 4.25,
		Params:  []float64{0.5, -1.25, math.Pi, 0},
		OptVecs: [][]float64{{1, 2, 3, 4}, {0.1, 0.2, 0.3, 0.4}},
		OptStep: 12,
		Groups: []GroupState{
			{Group: 0, Epoch: 3, Members: []int{1, 2},
				Ctrl: &elastic.ControllerState{
					Members: []elastic.MemberState{
						{ID: 1, Alive: true, Meter: estimate.MeterState{Prior: 500, Value: 480.5, Init: true, Count: 9}},
						{ID: 2, Alive: false, Meter: estimate.MeterState{Prior: 250}},
					},
					LastReplan: 7,
					Events: []elastic.ReplanEvent{
						{Iter: 0, Epoch: 0, Reason: "initial", Members: 2},
						{Iter: 7, Epoch: 3, Reason: "drift", Members: 2, Imbalance: 1.8},
					},
				}},
			{Group: 1, Epoch: -1, Members: nil},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := fullSnapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestSnapshotMinimalRoundTrip(t *testing.T) {
	want := &Snapshot{Iter: 0, Epoch: -1}
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", want, got)
	}
}

// bigSnapshot is fullSnapshot at the durable benchmark's size: 100 010
// params and one momentum vector. The values are 53-bit integers scaled by a
// power of two, so they are the same on every platform.
func bigSnapshot() *Snapshot {
	rng := rand.New(rand.NewSource(29))
	vec := func() []float64 {
		v := make([]float64, 100_010)
		for i := range v {
			v[i] = float64(int64(rng.Uint64())>>11) * 0x1p-60
		}
		return v
	}
	snap := fullSnapshot()
	snap.Params, snap.OptVecs = vec(), [][]float64{vec()}
	return snap
}

// TestEncodeSnapshotGolden pins the snapshot file bytes: a file outlives
// the build that wrote it, so an encoder change must not move a byte
// without a new format version in snapMagic.
func TestEncodeSnapshotGolden(t *testing.T) {
	for name, c := range map[string]struct {
		snap *Snapshot
		sum  string
	}{
		"full": {fullSnapshot(), "473c07d0a8226c04482fb4e6b36ad7cf5d6af0573d92fb56f8495a1a769800f4"},
		"big":  {bigSnapshot(), "f2fcf88eccb70e5e645d6538aa08d651b63e0f7114561683467b7e0ec8305760"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(EncodeSnapshot(c.snap))); got != c.sum {
			t.Errorf("%s snapshot: sha256 %s, want %s", name, got, c.sum)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindJoin, Group: 2, Member: 7, Rejoin: true},
		{Kind: KindJoin, Group: 0, Member: 1},
		{Kind: KindDeath, Group: 1, Member: 3},
		{Kind: KindPlan, Group: 3, Iter: 40, Epoch: 9, Members: []int{4, 5, 6}},
		{Kind: KindIter, Iter: 41, Epoch: 9, Step: 42},
	}
	var stream []byte
	for i := range recs {
		payload := encodeRecordPayload(nil, &recs[i])
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(&recs[i], got) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, recs[i], got)
		}
		stream = frameRecord(stream, payload)
	}
	decoded, err := ReadJournal(stream)
	if err != nil {
		t.Fatalf("clean journal returned error: %v", err)
	}
	if !reflect.DeepEqual(recs, decoded) {
		t.Fatalf("journal mismatch:\nwant %+v\ngot  %+v", recs, decoded)
	}
}

func TestJournalTornTail(t *testing.T) {
	var stream []byte
	stream = frameRecord(stream, encodeRecordPayload(nil, &Record{Kind: KindIter, Iter: 3, Epoch: 1, Step: 4}))
	full := frameRecord(stream, encodeRecordPayload(nil, &Record{Kind: KindDeath, Member: 2}))
	for cut := len(stream) + 1; cut < len(full); cut++ {
		recs, err := ReadJournal(full[:cut])
		if err == nil {
			t.Fatalf("cut %d: torn tail decoded cleanly", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: error %v does not wrap ErrCorrupt", cut, err)
		}
		if len(recs) != 1 || recs[0].Kind != KindIter {
			t.Fatalf("cut %d: prefix lost: %+v", cut, recs)
		}
	}
}

func TestStoreJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.GroupRecorder(0)
	rec.RecordJoin(1, false)
	rec.RecordJoin(2, false)
	rec.RecordPlan(0, 0, []int{1, 2})
	if err := s.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	rec.RecordDeath(2)
	rec.RecordPlan(1, 1, []int{1})
	if err := s.AppendIter(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snap != nil {
		t.Fatalf("journal-only recovery produced a snapshot: %+v", st.Snap)
	}
	if st.LastIter != 1 || st.Steps != 2 {
		t.Fatalf("LastIter/Steps = %d/%d, want 1/2", st.LastIter, st.Steps)
	}
	if st.GroupEpochs[0] != 1 {
		t.Fatalf("GroupEpochs[0] = %d, want 1", st.GroupEpochs[0])
	}
	if want := []int{1, 2}; !reflect.DeepEqual(st.GroupMembers[0], want) {
		t.Fatalf("GroupMembers[0] = %v, want %v", st.GroupMembers[0], want)
	}
	if st.MaxEpoch() != 1 {
		t.Fatalf("MaxEpoch = %d, want 1", st.MaxEpoch())
	}
}

func TestStoreSnapshotRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := s.AppendIter(i*10-1, 0, i*10); err != nil {
			t.Fatal(err)
		}
		snap := fullSnapshot()
		snap.Iter, snap.Step = i*10, i*10
		if err := s.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4}; !reflect.DeepEqual(snaps, want) {
		t.Fatalf("retained snapshots %v, want %v", snaps, want)
	}
	if want := []int{3, 4}; !reflect.DeepEqual(wals, want) {
		t.Fatalf("retained journals %v, want %v", wals, want)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snap == nil || st.Snap.Iter != 40 {
		t.Fatalf("recovered snapshot %+v, want iter 40", st.Snap)
	}
}

func TestRecoverCorruptLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := fullSnapshot()
	snap.Iter = 10
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	snap2 := fullSnapshot()
	snap2.Iter = 20
	if err := s.WriteSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	// Epochs created after the newest snapshot must survive its corruption.
	s.GroupRecorder(0).RecordPlan(21, 9, []int{1, 2})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, "snap-00000002.ckpt"))
	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	if st.Snap == nil || st.Snap.Iter != 10 {
		t.Fatalf("recovered snapshot %+v, want the gen-1 snapshot (iter 10)", st.Snap)
	}
	if st.GroupEpochs[0] != 9 {
		t.Fatalf("GroupEpochs[0] = %d, want 9 (journal beyond the corrupt snapshot)", st.GroupEpochs[0])
	}
}

func TestRecoverAllSnapshotsCorruptIsTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(fullSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, "snap-00000001.ckpt"))
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over all-corrupt snapshots: %v, want ErrCorrupt", err)
	}
}

func TestCreateRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over existing state: %v, want ErrExists", err)
	}
}

// TestCreateWithoutAppendsLeavesNoState pins the lazy journal creation: a
// master whose construction fails after Create (listener, roster) must not
// strand files that make the retried fresh run fail ErrExists.
func TestCreateWithoutAppendsLeavesNoState(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Create(dir)
	if err != nil {
		t.Fatalf("fresh Create after an append-free predecessor: %v", err)
	}
	if err := s2.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotEmptyControllerOmitted pins the encoder/decoder agreement: a
// controller state without members (a resume anchor written before any
// worker ever joined) is normalised to absent, because the decoder rejects
// a present-but-empty one.
func TestSnapshotEmptyControllerOmitted(t *testing.T) {
	snap := &Snapshot{Iter: 0, Epoch: -1, Groups: []GroupState{{Epoch: -1, Ctrl: &elastic.ControllerState{LastReplan: -1}}}}
	got, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatalf("anchor with empty controller state does not decode: %v", err)
	}
	if got.Groups[0].Ctrl != nil {
		t.Fatalf("empty controller state survived encoding: %+v", got.Groups[0].Ctrl)
	}
}

// TestDecodeRefusesOtherVersion: a snapshot whose magic names another format
// version (here 1) is refused as corrupt, not mis-read as the current one.
func TestDecodeRefusesOtherVersion(t *testing.T) {
	data := EncodeSnapshot(fullSnapshot())
	data[len(snapMagic)-1] = 1
	if _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version 1 snapshot: %v, want ErrCorrupt", err)
	}
}

func TestReopenRequiresSnapshotFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Reopen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AppendIter(1, 0, 2); !errors.Is(err, ErrNeedSnapshot) {
		t.Fatalf("append before snapshot: %v, want ErrNeedSnapshot", err)
	}
	if err := r.WriteSnapshot(&Snapshot{Iter: 1, Epoch: 0, Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendIter(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snap == nil || st.Snap.Iter != 1 || st.LastIter != 1 {
		t.Fatalf("recovered %+v LastIter %d, want snapshot iter 1 and LastIter 1", st.Snap, st.LastIter)
	}
}

func TestRecoverMissingDir(t *testing.T) {
	if _, err := Recover(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: %v, want ErrNoCheckpoint", err)
	}
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v, want ErrNoCheckpoint", err)
	}
}

func TestStoreTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendIter(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage at the journal tail.
	f, err := os.OpenFile(filepath.Join(dir, "wal-00000000.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastIter != 1 || st.Steps != 2 {
		t.Fatalf("LastIter/Steps = %d/%d, want 1/2", st.LastIter, st.Steps)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeTruncationTable drives every decoder over every strict prefix
// of valid artifacts: each must fail with ErrCorrupt, never panic, never
// succeed on partial input.
func TestDecodeTruncationTable(t *testing.T) {
	recs := []Record{
		{Kind: KindJoin, Group: 1, Member: 300, Rejoin: true},
		{Kind: KindDeath, Member: 2},
		{Kind: KindPlan, Iter: 9, Epoch: 4, Members: []int{1, 2, 3}},
		{Kind: KindIter, Iter: 9, Epoch: 4, Step: 10},
	}
	for _, rec := range recs {
		payload := encodeRecordPayload(nil, &rec)
		for cut := 0; cut < len(payload); cut++ {
			got, err := DecodeRecord(payload[:cut])
			if err == nil {
				t.Fatalf("%v truncated at %d decoded: %+v", rec.Kind, cut, got)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v truncated at %d: %v does not wrap ErrCorrupt", rec.Kind, cut, err)
			}
		}
	}
	snap := EncodeSnapshot(fullSnapshot())
	for cut := 0; cut < len(snap); cut++ {
		if _, err := DecodeSnapshot(snap[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot truncated at %d: %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// Single-bit flips anywhere in the body must be caught by the CRC (or a
	// structural check), never absorbed.
	for i := len(snapMagic); i < len(snap); i += 7 {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x01
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", i)
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	s.SetRetain(0) // ignored: minimum is 1
	s.SetRetain(3)
	for i := 1; i <= 5; i++ {
		if err := s.WriteSnapshot(&Snapshot{Iter: i, Epoch: -1}); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("retained %d snapshots with retain=3, want 3", len(snaps))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&Record{Kind: KindIter}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := s.WriteSnapshot(&Snapshot{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: %v, want ErrClosed", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindJoin: "join", KindDeath: "death", KindPlan: "plan", KindIter: "iter", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestRecoverMidJournalCorruptionIsTyped distinguishes the two journal
// corruption shapes: a torn tail (crash mid-append) is absorbed, but bit
// rot in the middle of a journal — which would silently drop the epoch
// fence recorded after it — fails recovery with a typed error.
func TestRecoverMidJournalCorruptionIsTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.GroupRecorder(0)
	rec.RecordPlan(0, 0, []int{1, 2})
	rec.RecordPlan(5, 1, []int{1, 2})
	rec.RecordPlan(9, 2, []int{1})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-00000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xff // inside a fully present middle frame
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Recover(dir)
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTornTail) {
		t.Fatalf("mid-journal bit rot: %v, want non-torn ErrCorrupt", err)
	}
	// The same bytes cut short instead of flipped are a torn tail: absorbed.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupEpochs[0] != 1 {
		t.Fatalf("torn-tail replay saw epoch %d, want 1 (two intact records)", st.GroupEpochs[0])
	}
}

func TestStoreGuardRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	fence := errors.New("fenced by generation 2")
	var fenced bool
	st.SetGuard(func() error {
		if fenced {
			return fence
		}
		return nil
	})
	if err := st.AppendIter(1, 0, 2); err != nil {
		t.Fatalf("guarded append while allowed: %v", err)
	}
	fenced = true
	if err := st.AppendIter(2, 0, 3); !errors.Is(err, fence) {
		t.Fatalf("append under fence = %v, want %v", err, fence)
	}
	if err := st.WriteSnapshot(&Snapshot{Iter: 2}); !errors.Is(err, fence) {
		t.Fatalf("snapshot under fence = %v, want %v", err, fence)
	}
	// The refused append latched the sticky error, so masters that only
	// consult Err at iteration boundaries still observe the fence.
	if err := st.Err(); !errors.Is(err, fence) {
		t.Fatalf("sticky err = %v, want %v", err, fence)
	}
	// Best-effort recorder appends are refused the same way.
	st.GroupRecorder(0).RecordDeath(1)
	// The directory must hold only pre-fence state.
	recovered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.LastIter != 1 {
		t.Fatalf("recovered LastIter = %d, want 1 (post-fence writes applied)", recovered.LastIter)
	}
	st.SetGuard(nil)
	if err := st.AppendIter(2, 0, 3); err != nil {
		t.Fatalf("append after guard cleared: %v", err)
	}
}

// TestStoreSnapshotFencedAtCommit: a deposed root can be mid-snapshot when
// its successor takes over and commits the same generation. The guard is
// consulted again at the commit, so the deposed root's snapshot never lands
// over the successor's, and it leaves no temp file behind.
func TestStoreSnapshotFencedAtCommit(t *testing.T) {
	dir := t.TempDir()
	old, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.WriteSnapshot(&Snapshot{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	successor, err := Reopen(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer successor.Close()
	fence := errors.New("fenced by generation 2")
	calls := 0
	old.SetGuard(func() error {
		if calls++; calls == 1 {
			return nil // the lease still stands when the snapshot starts
		}
		// The successor took over while the snapshot was being written.
		if err := successor.WriteSnapshot(&Snapshot{Iter: 7}); err != nil {
			t.Errorf("successor snapshot: %v", err)
		}
		return fence
	})
	if err := old.WriteSnapshot(&Snapshot{Iter: 3}); !errors.Is(err, fence) {
		t.Fatalf("snapshot fenced mid-write = %v, want %v", err, fence)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snap == nil || st.Snap.Iter != 7 {
		t.Fatalf("recovered snapshot %+v, want the successor's at iteration 7", st.Snap)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v (err %v)", tmps, err)
	}
}

// restoreStub matches the statefulOptimizer surface structurally, like
// ml.StatefulOptimizer does.
type restoreStub struct {
	vecs [][]float64
	step int
	err  error
}

func (o *restoreStub) OptimizerState() ([][]float64, int) { return o.vecs, o.step }
func (o *restoreStub) RestoreOptimizerState(vecs [][]float64, step int) error {
	o.vecs, o.step = vecs, step
	return o.err
}

func TestRestoreTraining(t *testing.T) {
	// A state without a snapshot restores the zero start.
	ts, err := (&State{}).RestoreTraining(3, nil)
	if err != nil || ts.Iter != 0 || ts.Params != nil {
		t.Fatalf("snapshot-less restore = %+v, %v", ts, err)
	}

	st := &State{Snap: &Snapshot{
		Iter: 7, Step: 9, Clock: 1.5,
		Params:  []float64{1, 2, 3},
		OptVecs: [][]float64{{4, 5, 6}},
		OptStep: 9,
	}}
	opt := &restoreStub{}
	ts, err = st.RestoreTraining(3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Iter != 7 || ts.Step != 9 || ts.Clock != 1.5 || len(ts.Params) != 3 {
		t.Fatalf("restored start = %+v", ts)
	}
	if opt.step != 9 || len(opt.vecs) != 1 || opt.vecs[0][2] != 6 {
		t.Fatalf("optimizer state not restored: %+v", opt)
	}

	// Dimension mismatches fail loudly rather than train on garbage.
	if _, err := st.RestoreTraining(2, nil); err == nil {
		t.Fatal("param dim mismatch accepted")
	}
	st.Snap.Params = []float64{1, 2}
	st.Snap.OptVecs = [][]float64{{4, 5, 6}}
	if _, err := st.RestoreTraining(2, &restoreStub{}); err == nil {
		t.Fatal("optimizer dim mismatch accepted")
	}
	st.Snap.OptVecs = [][]float64{{4, 5}}
	if _, err := st.RestoreTraining(2, &restoreStub{err: errors.New("boom")}); err == nil {
		t.Fatal("optimizer restore failure swallowed")
	}
}
