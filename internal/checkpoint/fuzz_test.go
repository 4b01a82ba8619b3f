// Decode fuzzers: any byte stream handed to the snapshot or journal decoder
// must yield either a valid value or an error wrapping ErrCorrupt — never a
// panic, never a silent mis-decode. Wired into `make fuzz-smoke` alongside
// the roster handshake fuzzer.
package checkpoint

import (
	"errors"
	"reflect"
	"testing"
)

func FuzzSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(fullSnapshot()))
	f.Add(EncodeSnapshot(&Snapshot{Iter: 0, Epoch: -1}))
	f.Add([]byte(snapMagic))
	f.Add([]byte("HGCSNAP\x02junk"))
	f.Add([]byte("HGCSNAP\x01junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// A decodable snapshot must survive a re-encode round trip: the
		// decoder accepted it, so the encoder must reproduce it.
		again, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("re-encode round trip drifted:\nfirst  %+v\nsecond %+v", snap, again)
		}
	})
}

func FuzzJournal(f *testing.F) {
	var stream []byte
	stream = frameRecord(stream, encodeRecordPayload(nil, &Record{Kind: KindJoin, Member: 1}))
	stream = frameRecord(stream, encodeRecordPayload(nil, &Record{Kind: KindPlan, Iter: 3, Epoch: 1, Members: []int{1, 2}}))
	stream = frameRecord(stream, encodeRecordPayload(nil, &Record{Kind: KindIter, Iter: 3, Epoch: 1, Step: 4}))
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJournal(data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("journal error %v does not wrap ErrCorrupt", err)
		}
		// Whatever prefix decoded must re-encode to a clean journal with the
		// same records.
		var again []byte
		for i := range recs {
			again = frameRecord(again, encodeRecordPayload(nil, &recs[i]))
		}
		recs2, err := ReadJournal(again)
		if err != nil {
			t.Fatalf("re-encoded journal failed: %v", err)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("journal re-encode drifted:\nfirst  %+v\nsecond %+v", recs, recs2)
		}
	})
}
