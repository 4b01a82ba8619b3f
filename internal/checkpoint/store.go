// The on-disk store: generation-numbered snapshot/journal pairs with atomic
// snapshot commits (temp-file + rename), journal rotation on every snapshot
// and bounded retention. Concurrency-safe: the sharded runtime's group
// masters journal membership and plan events from their own goroutines while
// the root appends iteration records and snapshots.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/obs"
)

// DefaultRetain is the number of snapshot generations kept after
// compaction. Two generations mean a bit-rotted newest snapshot still
// leaves a decodable fallback.
const DefaultRetain = 2

const (
	snapPattern = "snap-%08d.ckpt"
	walPattern  = "wal-%08d.log"
)

// Store is an open checkpoint directory accepting journal appends and
// snapshot commits. Obtain one with Create (fresh run) or Reopen (resumed
// run); read one with Recover.
type Store struct {
	mu      sync.Mutex
	dir     string
	gen     int
	wal     *os.File
	retain  int
	pending bool // reopened: the resumed state must be snapshotted first
	closed  bool
	err     error // sticky first write failure
	scratch []byte
	// snapBuf holds the last snapshot's file contents; the next snapshot is
	// encoded over it, so a steady-state commit allocates nothing dim-sized.
	snapBuf []byte
	// guard, when set, is consulted before every journal append, and before
	// and at every snapshot commit. The HA control plane installs the root
	// lease's fence check here, so a deposed root's writes fail typed
	// (ha.ErrFenced) instead of reaching the directory the new root now owns.
	guard func() error
	// obs, when set, receives append/fsync latencies, journal lag and
	// fenced-write counts.
	obs *obs.Metrics
	// sinceSnap counts journal records appended since the last snapshot —
	// the replay cost of recovering from this store right now.
	sinceSnap int
}

// SetMetrics attaches a telemetry bundle; nil detaches it.
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = m
}

// SetGuard installs a write guard consulted before every Append and
// WriteSnapshot; a non-nil return aborts the write with that error. Pass nil
// to clear. The guard must be safe for concurrent use and fast on the happy
// path — it runs under the store lock.
func (s *Store) SetGuard(guard func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.guard = guard
}

// Create opens a fresh store in dir, creating the directory as needed. A
// directory already holding checkpoint state is refused with ErrExists —
// resuming requires Recover + Reopen, and overwriting a previous run's
// durable state must be an explicit operator decision (delete the
// directory), never a silent side effect.
func Create(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint create %s: %w", dir, err)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 || len(wals) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrExists, dir)
	}
	// The journal file is created lazily on the first append: a master
	// whose construction fails after Create (listener, roster) must not
	// strand an empty wal-0 that makes the retried fresh run fail ErrExists
	// over a directory holding no training state.
	return &Store{dir: dir, retain: DefaultRetain}, nil
}

// Reopen opens an existing checkpoint directory for a resumed run. The
// first operation must be WriteSnapshot with the recovered state: it opens
// a fresh generation, so the resumed run never appends to a journal whose
// tail may be torn. Append before that snapshot fails with ErrNeedSnapshot.
func Reopen(dir string) (*Store, error) {
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 && len(wals) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
	}
	gen := 0
	if len(snaps) > 0 && snaps[len(snaps)-1] > gen {
		gen = snaps[len(snaps)-1]
	}
	if len(wals) > 0 && wals[len(wals)-1] > gen {
		gen = wals[len(wals)-1]
	}
	return &Store{dir: dir, gen: gen, retain: DefaultRetain, pending: true}, nil
}

// SetRetain overrides the number of snapshot generations kept (minimum 1).
func (s *Store) SetRetain(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n >= 1 {
		s.retain = n
	}
}

// Dir returns the checkpoint directory.
func (s *Store) Dir() string { return s.dir }

// Err returns the first write failure the store has swallowed from a
// best-effort path (the roster recorder). Masters check it at iteration
// boundaries so a dying disk fails the run instead of silently un-journaling
// it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Append writes one CRC-framed record to the current journal.
func (s *Store) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(rec)
}

func (s *Store) appendLocked(rec *Record) error {
	if s.closed {
		return ErrClosed
	}
	if s.guard != nil {
		if err := s.guard(); err != nil {
			err = fmt.Errorf("checkpoint journal append refused: %w", err)
			if s.err == nil {
				s.err = err
			}
			s.obs.OnFencedWrite(rec.Iter, "journal append")
			return err
		}
	}
	if s.pending {
		return ErrNeedSnapshot
	}
	if s.wal == nil {
		wal, err := openWAL(s.dir, s.gen)
		if err != nil {
			if s.err == nil {
				s.err = err
			}
			return err
		}
		s.wal = wal
	}
	s.scratch = frameRecord(s.scratch[:0], encodeRecordPayload(nil, rec))
	start := time.Now()
	if _, err := s.wal.Write(s.scratch); err != nil {
		err = fmt.Errorf("checkpoint journal append: %w", err)
		if s.err == nil {
			s.err = err
		}
		return err
	}
	s.sinceSnap++
	s.obs.OnAppend(time.Since(start).Seconds(), s.sinceSnap)
	return nil
}

// AppendIter journals one completed iteration: the epoch it decoded under
// and the optimizer step count after it.
func (s *Store) AppendIter(iter, epoch, step int) error {
	return s.Append(&Record{Kind: KindIter, Iter: iter, Epoch: epoch, Step: step})
}

// WriteSnapshot commits snap atomically as a new generation: the snapshot
// is written to a temp file, fsynced and renamed into place, the journal
// rotates to a fresh file, and generations older than the retention bound
// are deleted (their history is folded into the surviving snapshots).
//
// snap is read only during the call and nothing of it is retained, so it
// may alias live state — a root's parameters, its optimizer's vectors — as
// long as nothing writes that state until WriteSnapshot returns.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.snapshotGuard(snap.Iter); err != nil {
		return err
	}
	start := time.Now()
	gen := s.gen + 1
	s.snapBuf = appendSnapshot(s.snapBuf[:0], snap)
	final := filepath.Join(s.dir, fmt.Sprintf(snapPattern, gen))
	// A deposed root can still be writing this generation when its successor
	// writes the same one: each store writes its own temp file, and the guard
	// is consulted again at the commit, after the slow write and fsync.
	tmp := fmt.Sprintf("%s.%d-%p.tmp", final, os.Getpid(), s)
	if err := writeFileSync(tmp, s.snapBuf); err != nil {
		return err
	}
	if err := s.snapshotGuard(snap.Iter); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint snapshot commit: %w", err)
	}
	wal, err := openWAL(s.dir, gen)
	if err != nil {
		return err
	}
	if s.wal != nil {
		_ = s.wal.Sync()
		_ = s.wal.Close()
	}
	s.wal = wal
	s.gen = gen
	s.pending = false
	syncDir(s.dir)
	// Compaction: drop generations whose history the retained snapshots
	// already fold in (best-effort; a failed unlink is retried at the next
	// snapshot).
	if snaps, wals, err := scanDir(s.dir); err == nil {
		for _, g := range snaps {
			if g <= gen-s.retain {
				_ = os.Remove(filepath.Join(s.dir, fmt.Sprintf(snapPattern, g)))
			}
		}
		for _, g := range wals {
			if g <= gen-s.retain {
				_ = os.Remove(filepath.Join(s.dir, fmt.Sprintf(walPattern, g)))
			}
		}
		syncDir(s.dir)
	}
	s.sinceSnap = 0
	s.obs.OnSnapshot(time.Since(start).Seconds(), snap.Iter)
	return nil
}

// snapshotGuard consults the guard for a snapshot of iteration iter.
func (s *Store) snapshotGuard(iter int) error {
	if s.guard == nil {
		return nil
	}
	if err := s.guard(); err != nil {
		s.obs.OnFencedWrite(iter, "snapshot")
		return fmt.Errorf("checkpoint snapshot refused: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Further operations fail with
// ErrClosed. Safe to call multiple times and concurrently with appenders.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// GroupRecorder adapts the store to the roster engine's Recorder interface
// for one coding group. Its methods are best-effort (the engine has no
// error path for them); failures surface through Store.Err at the next
// iteration boundary.
type GroupRecorder struct {
	s     *Store
	group int
}

// GroupRecorder returns the journal adapter for one group's roster engine.
func (s *Store) GroupRecorder(group int) *GroupRecorder {
	return &GroupRecorder{s: s, group: group}
}

// RecordJoin journals a member join/rejoin.
func (r *GroupRecorder) RecordJoin(id int, rejoin bool) {
	_ = r.s.Append(&Record{Kind: KindJoin, Group: r.group, Member: id, Rejoin: rejoin})
}

// RecordDeath journals a member death.
func (r *GroupRecorder) RecordDeath(id int) {
	_ = r.s.Append(&Record{Kind: KindDeath, Group: r.group, Member: id})
}

// RecordPlan journals a plan migration.
func (r *GroupRecorder) RecordPlan(iter, epoch int, members []int) {
	_ = r.s.Append(&Record{Kind: KindPlan, Group: r.group, Iter: iter, Epoch: epoch,
		Members: append([]int(nil), members...)})
}

// Recover reads a checkpoint directory into a State: the newest decodable
// snapshot (falling back generation by generation past corrupt ones) plus a
// replay of every journal from that generation upward. It never mutates the
// directory, so it is safe to call while a writer is live (it simply
// observes a prefix). A directory with snapshot files none of which decode
// fails with ErrCorrupt; a directory with no checkpoint files at all fails
// with ErrNoCheckpoint.
func Recover(dir string) (*State, error) {
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 && len(wals) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
	}
	st := &State{
		GroupEpochs:  make(map[int]int),
		GroupMembers: make(map[int][]int),
		LastIter:     -1,
	}
	var snapErr error
	anchor := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(snapPattern, snaps[i])))
		if err != nil {
			if os.IsNotExist(err) {
				continue // compacted away between listing and read
			}
			return nil, fmt.Errorf("checkpoint recover: %w", err)
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			snapErr = err
			continue
		}
		st.Snap = snap
		anchor = snaps[i]
		break
	}
	if st.Snap == nil && len(snaps) > 0 {
		// Snapshots exist but none decodes: the model state is gone, and
		// restarting from scratch silently would violate the durability
		// contract. Typed failure; the operator decides.
		return nil, fmt.Errorf("checkpoint recover %s: every snapshot undecodable: %w", dir, snapErr)
	}
	if snap := st.Snap; snap != nil {
		st.LastIter = snap.Iter - 1
		st.Steps = snap.Step
		for _, gs := range snap.Groups {
			st.GroupEpochs[gs.Group] = gs.Epoch
			st.GroupMembers[gs.Group] = append(st.GroupMembers[gs.Group], gs.Members...)
		}
	}
	for _, g := range wals {
		if g < anchor {
			continue // superseded by the anchor snapshot; may survive a raced compaction
		}
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(walPattern, g)))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("checkpoint recover: %w", err)
		}
		// A torn tail is the normal crash shape: replay the decodable
		// prefix and stop. Any other journal corruption (bit rot mid-file)
		// would silently drop the records — and the epoch fence — behind
		// it, so it fails recovery typed instead.
		recs, jerr := ReadJournal(data)
		if jerr != nil && !errors.Is(jerr, ErrTornTail) {
			return nil, fmt.Errorf("checkpoint recover: journal wal-%08d: %w", g, jerr)
		}
		for i := range recs {
			applyRecord(st, &recs[i])
		}
	}
	for g, ms := range st.GroupMembers {
		st.GroupMembers[g] = dedupeSorted(ms)
	}
	return st, nil
}

// applyRecord folds one journal record into the recovered state.
func applyRecord(st *State, rec *Record) {
	switch rec.Kind {
	case KindJoin:
		st.GroupMembers[rec.Group] = append(st.GroupMembers[rec.Group], rec.Member)
	case KindDeath:
		// Deaths do not unreserve IDs: the member may rejoin after resume.
	case KindPlan:
		if cur, ok := st.GroupEpochs[rec.Group]; !ok || rec.Epoch > cur {
			st.GroupEpochs[rec.Group] = rec.Epoch
		}
	case KindIter:
		if rec.Iter > st.LastIter {
			st.LastIter = rec.Iter
			st.Steps = rec.Step
		}
	}
}

func dedupeSorted(ms []int) []int {
	sort.Ints(ms)
	out := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			out = append(out, m)
		}
	}
	return out
}

// scanDir lists the snapshot and journal generations present in dir,
// ascending. A missing directory maps to ErrNoCheckpoint.
func scanDir(dir string) (snaps, wals []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
		}
		return nil, nil, fmt.Errorf("checkpoint scan %s: %w", dir, err)
	}
	for _, e := range entries {
		var g int
		if n, err := fmt.Sscanf(e.Name(), snapPattern, &g); err == nil && n == 1 && e.Name() == fmt.Sprintf(snapPattern, g) {
			snaps = append(snaps, g)
		} else if n, err := fmt.Sscanf(e.Name(), walPattern, &g); err == nil && n == 1 && e.Name() == fmt.Sprintf(walPattern, g) {
			wals = append(wals, g)
		}
	}
	sort.Ints(snaps)
	sort.Ints(wals)
	return snaps, wals, nil
}

func openWAL(dir string, gen int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf(walPattern, gen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint journal open: %w", err)
	}
	return f, nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint snapshot write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("checkpoint snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("checkpoint snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint snapshot close: %w", err)
	}
	return nil
}

// syncDir fsyncs the directory so renames and unlinks are durable
// (best-effort: some platforms reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
