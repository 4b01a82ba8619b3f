package checkpoint

import "testing"

// BenchmarkWriteSnapshot is one snapshot commit at the durable benchmark's
// size (100 010 params and one momentum vector) in steady state: the store
// has already rotated past its retention bound, so each commit encodes,
// writes, fsyncs, renames, opens the next journal and unlinks the oldest
// generation. B/op is what the encode path allocates per snapshot.
func BenchmarkWriteSnapshot(b *testing.B) {
	s, err := Create(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	snap := bigSnapshot()
	commit := func(iter int) {
		snap.Iter, snap.Step = iter, iter
		if err := s.WriteSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i <= DefaultRetain; i++ {
		commit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(DefaultRetain + 1 + i)
	}
}
