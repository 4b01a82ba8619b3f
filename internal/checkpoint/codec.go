// Versioned binary formats for the snapshot file and the journal records,
// both CRC-framed so recovery can tell a decodable artifact from a torn or
// bit-rotted one. Float vectors — model params, optimizer state, throughput
// estimates — reuse transport's compact gradient codec (AppendFloat64s /
// ReadFloat64s), so the hot-path layout and the durable layout are one
// implementation. Every decode path is defensive: it bounds-checks before
// allocating and returns errors wrapping ErrCorrupt, never panics.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/transport"
)

const (
	// snapMagic opens every snapshot file; the trailing byte is the format
	// version. A file of any other version fails decode as corrupt.
	snapMagic = "HGCSNAP\x02"
	// recVersion is the journal record format version.
	recVersion = 1
	// maxFrameLen bounds a single journal frame's payload — far above any
	// real record, small enough that a corrupt length prefix cannot drive a
	// giant allocation.
	maxFrameLen = 1 << 26
	// maxCount bounds decoded element counts (members, groups, events,
	// optimizer vectors) before allocation.
	maxCount = 1 << 20
	// maxID bounds member IDs and iteration/epoch/step counters.
	maxID = 1 << 40
)

// frameRecord appends one CRC-framed record to dst: uint32 payload length,
// uint32 CRC-32 (IEEE) of the payload, payload.
func frameRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// AppendFrame appends one CRC-framed record to dst — the exact framing the
// journal uses (uint32 LE payload length, uint32 LE CRC-32 IEEE, payload).
// Exported for the data plane, so partition payloads on the wire share the
// checkpoint codec's integrity check.
func AppendFrame(dst, payload []byte) []byte { return frameRecord(dst, payload) }

// ReadFrame parses one CRC-framed record (as written by AppendFrame) from b,
// bounding the payload length by max (maxPayload <= 0 selects the journal's
// own frame cap). It returns the payload and the bytes after the frame;
// truncation, an absurd length or a CRC mismatch yield an error wrapping
// ErrCorrupt.
func ReadFrame(b []byte, maxPayload int) (payload, rest []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = maxFrameLen
	}
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("%w: frame header truncated (%d bytes)", ErrCorrupt, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if n < 0 || n > maxPayload {
		return nil, nil, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrCorrupt, n, maxPayload)
	}
	if len(b)-8 < n {
		return nil, nil, fmt.Errorf("%w: frame truncated (%d of %d payload bytes)", ErrCorrupt, len(b)-8, n)
	}
	payload = b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, b[8+n:], nil
}

// reader is a bounds-checked cursor over a decoded payload.
type reader struct {
	b []byte
}

func (r *reader) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, fmt.Errorf("%w: truncated byte", ErrCorrupt)
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint (%s)", ErrCorrupt, what)
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads a bounded non-negative element count.
func (r *reader) count(what string, max uint64) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("%w: %s count %d exceeds cap %d", ErrCorrupt, what, v, max)
	}
	return int(v), nil
}

func (r *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint (%s)", ErrCorrupt, what)
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) f64(what string) (float64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("%w: truncated float (%s)", ErrCorrupt, what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v, nil
}

func (r *reader) floats(what string, n int) ([]float64, error) {
	vec, rest, err := transport.ReadFloat64s(r.b, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	r.b = rest
	return vec, nil
}

func (r *reader) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bool byte %#x", ErrCorrupt, v)
	}
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// encodeRecordPayload serialises one journal record (without framing).
func encodeRecordPayload(dst []byte, rec *Record) []byte {
	dst = append(dst, recVersion, byte(rec.Kind))
	dst = binary.AppendUvarint(dst, uint64(rec.Group))
	switch rec.Kind {
	case KindJoin:
		dst = binary.AppendUvarint(dst, uint64(rec.Member))
		dst = appendBool(dst, rec.Rejoin)
	case KindDeath:
		dst = binary.AppendUvarint(dst, uint64(rec.Member))
	case KindPlan:
		dst = binary.AppendUvarint(dst, uint64(rec.Iter))
		dst = binary.AppendUvarint(dst, uint64(rec.Epoch))
		dst = binary.AppendUvarint(dst, uint64(len(rec.Members)))
		for _, m := range rec.Members {
			dst = binary.AppendUvarint(dst, uint64(m))
		}
	case KindIter:
		dst = binary.AppendUvarint(dst, uint64(rec.Iter))
		dst = binary.AppendUvarint(dst, uint64(rec.Epoch))
		dst = binary.AppendUvarint(dst, uint64(rec.Step))
	}
	return dst
}

// DecodeRecord parses one journal record payload (the bytes inside a CRC
// frame). Any violation — unknown version or kind, truncation, impossible
// values, trailing bytes — yields an error wrapping ErrCorrupt.
func DecodeRecord(payload []byte) (*Record, error) {
	r := &reader{b: payload}
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != recVersion {
		return nil, fmt.Errorf("%w: record version %d", ErrCorrupt, ver)
	}
	kindB, err := r.u8()
	if err != nil {
		return nil, err
	}
	rec := &Record{Kind: Kind(kindB)}
	group, err := r.count("group", maxCount)
	if err != nil {
		return nil, err
	}
	rec.Group = group
	id := func(what string) (int, error) { return r.count(what, maxID) }
	switch rec.Kind {
	case KindJoin:
		if rec.Member, err = id("member"); err != nil {
			return nil, err
		}
		if rec.Rejoin, err = r.bool(); err != nil {
			return nil, err
		}
	case KindDeath:
		if rec.Member, err = id("member"); err != nil {
			return nil, err
		}
	case KindPlan:
		if rec.Iter, err = id("iter"); err != nil {
			return nil, err
		}
		if rec.Epoch, err = id("epoch"); err != nil {
			return nil, err
		}
		n, err := r.count("plan members", maxCount)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			rec.Members = make([]int, n)
			for i := range rec.Members {
				if rec.Members[i], err = id("plan member"); err != nil {
					return nil, err
				}
			}
		}
	case KindIter:
		if rec.Iter, err = id("iter"); err != nil {
			return nil, err
		}
		if rec.Epoch, err = id("epoch"); err != nil {
			return nil, err
		}
		if rec.Step, err = id("step"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kindB)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v record", ErrCorrupt, len(r.b), rec.Kind)
	}
	return rec, nil
}

// ReadJournal decodes a journal byte stream into its records. It stops at
// the first undecodable frame and returns the records before it together
// with the typed error describing the breakage (nil for a clean stream).
// The error distinguishes the crash shape from bit rot: a final frame whose
// header or payload extends past the end of the data wraps ErrTornTail
// (the writer died mid-append — replay callers treat it as end-of-log),
// while a CRC mismatch or decode failure on a fully present frame wraps
// only ErrCorrupt (the records after it exist but cannot be trusted, so
// recovery must surface the loss, not silently absorb it). Fuzzers assert
// every error wraps ErrCorrupt and nothing panics.
func ReadJournal(data []byte) ([]Record, error) {
	var recs []Record
	for off := 0; off < len(data); {
		if len(data)-off < 8 {
			return recs, fmt.Errorf("%w: frame header at offset %d", ErrTornTail, off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxFrameLen {
			return recs, fmt.Errorf("%w: journal frame length %d at offset %d", ErrCorrupt, n, off)
		}
		if n > len(data)-off-8 {
			return recs, fmt.Errorf("%w: frame of %d bytes with %d left at offset %d", ErrTornTail, n, len(data)-off-8, off)
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, fmt.Errorf("%w: journal CRC mismatch at offset %d", ErrCorrupt, off)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return recs, fmt.Errorf("journal record at offset %d: %w", off, err)
		}
		recs = append(recs, *rec)
		off += 8 + n
	}
	return recs, nil
}

// EncodeSnapshot serialises a snapshot into its full file contents: magic,
// CRC frame, payload.
func EncodeSnapshot(snap *Snapshot) []byte { return appendSnapshot(nil, snap) }

// snapSlack is the room appendSnapshot reserves beyond the float vectors,
// for the counters, group summaries and controller state.
const snapSlack = 1 << 10

// appendSnapshot appends snap's file contents to dst. It grows dst once for
// every float vector, then reserves the frame header and patches it once
// the payload is written, so the payload is never copied.
func appendSnapshot(dst []byte, snap *Snapshot) []byte {
	floats := len(snap.Params)
	for _, v := range snap.OptVecs {
		floats += len(v)
	}
	dst = slices.Grow(dst, len(snapMagic)+8+8*floats+snapSlack)
	dst = append(dst, snapMagic...)
	hdr := len(dst)
	p := append(dst, make([]byte, 8)...)
	p = binary.AppendUvarint(p, uint64(snap.Iter))
	p = binary.AppendVarint(p, int64(snap.Epoch))
	p = binary.AppendUvarint(p, uint64(snap.Step))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(snap.Clock))
	p = binary.AppendUvarint(p, uint64(len(snap.Params)))
	p = transport.AppendFloat64s(p, snap.Params)
	p = binary.AppendUvarint(p, uint64(len(snap.OptVecs)))
	for _, v := range snap.OptVecs {
		p = binary.AppendUvarint(p, uint64(len(v)))
		p = transport.AppendFloat64s(p, v)
	}
	p = binary.AppendUvarint(p, uint64(snap.OptStep))
	p = binary.AppendUvarint(p, uint64(len(snap.Groups)))
	for _, gs := range snap.Groups {
		p = binary.AppendUvarint(p, uint64(gs.Group))
		p = binary.AppendVarint(p, int64(gs.Epoch))
		p = binary.AppendUvarint(p, uint64(len(gs.Members)))
		for _, m := range gs.Members {
			p = binary.AppendUvarint(p, uint64(m))
		}
		// A memberless controller state (an anchor written before any worker
		// joined) is useless to recovery and rejected on decode: omit it.
		hasGC := gs.Ctrl != nil && len(gs.Ctrl.Members) > 0
		p = appendBool(p, hasGC)
		if hasGC {
			p = appendControllerState(p, gs.Ctrl)
		}
	}
	payload := p[hdr+8:]
	binary.LittleEndian.PutUint32(p[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[hdr+4:], crc32.ChecksumIEEE(payload))
	return p
}

func appendControllerState(p []byte, cs *elastic.ControllerState) []byte {
	p = binary.AppendUvarint(p, uint64(len(cs.Members)))
	for _, ms := range cs.Members {
		p = binary.AppendUvarint(p, uint64(ms.ID))
		p = appendBool(p, ms.Alive)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(ms.Meter.Prior))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(ms.Meter.Value))
		p = appendBool(p, ms.Meter.Init)
		p = binary.AppendUvarint(p, uint64(ms.Meter.Count))
	}
	p = binary.AppendVarint(p, int64(cs.LastReplan))
	p = binary.AppendUvarint(p, uint64(len(cs.Events)))
	for _, ev := range cs.Events {
		p = binary.AppendUvarint(p, uint64(ev.Iter))
		p = binary.AppendUvarint(p, uint64(ev.Epoch))
		p = binary.AppendUvarint(p, uint64(len(ev.Reason)))
		p = append(p, ev.Reason...)
		p = binary.AppendUvarint(p, uint64(ev.Members))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(ev.Imbalance))
	}
	return p
}

// DecodeSnapshot parses a snapshot file's contents. Corruption anywhere —
// bad magic, CRC mismatch, truncation, impossible values, trailing bytes —
// yields an error wrapping ErrCorrupt.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("%w: snapshot file truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	body := data[len(snapMagic):]
	n := int(binary.LittleEndian.Uint32(body))
	sum := binary.LittleEndian.Uint32(body[4:])
	if n < 0 || n != len(body)-8 {
		return nil, fmt.Errorf("%w: snapshot payload length %d with %d bytes present", ErrCorrupt, n, len(body)-8)
	}
	payload := body[8:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	r := &reader{b: payload}
	snap := &Snapshot{}
	var err error
	if snap.Iter, err = r.count("iter", maxID); err != nil {
		return nil, err
	}
	epoch, err := r.varint("epoch")
	if err != nil {
		return nil, err
	}
	if epoch < -1 || epoch > maxID {
		return nil, fmt.Errorf("%w: snapshot epoch %d", ErrCorrupt, epoch)
	}
	snap.Epoch = int(epoch)
	if snap.Step, err = r.count("step", maxID); err != nil {
		return nil, err
	}
	if snap.Clock, err = r.f64("clock"); err != nil {
		return nil, err
	}
	nParams, err := r.count("params", transport.MaxVectorLen)
	if err != nil {
		return nil, err
	}
	if snap.Params, err = r.floats("params", nParams); err != nil {
		return nil, err
	}
	nVecs, err := r.count("optimizer vectors", maxCount)
	if err != nil {
		return nil, err
	}
	if nVecs > 0 {
		snap.OptVecs = make([][]float64, nVecs)
		for i := range snap.OptVecs {
			nv, err := r.count("optimizer vector", transport.MaxVectorLen)
			if err != nil {
				return nil, err
			}
			if snap.OptVecs[i], err = r.floats("optimizer vector", nv); err != nil {
				return nil, err
			}
		}
	}
	if snap.OptStep, err = r.count("optimizer step", maxID); err != nil {
		return nil, err
	}
	nGroups, err := r.count("groups", maxCount)
	if err != nil {
		return nil, err
	}
	if nGroups > 0 {
		snap.Groups = make([]GroupState, nGroups)
		for i := range snap.Groups {
			gs := &snap.Groups[i]
			if gs.Group, err = r.count("group", maxCount); err != nil {
				return nil, err
			}
			ep, err := r.varint("group epoch")
			if err != nil {
				return nil, err
			}
			if ep < -1 || ep > maxID {
				return nil, fmt.Errorf("%w: group epoch %d", ErrCorrupt, ep)
			}
			gs.Epoch = int(ep)
			nm, err := r.count("group members", maxCount)
			if err != nil {
				return nil, err
			}
			if nm > 0 {
				gs.Members = make([]int, nm)
				for j := range gs.Members {
					if gs.Members[j], err = r.count("group member", maxID); err != nil {
						return nil, err
					}
				}
			}
			hasGC, err := r.bool()
			if err != nil {
				return nil, err
			}
			if hasGC {
				if gs.Ctrl, err = readControllerState(r); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, len(r.b))
	}
	return snap, nil
}

func readControllerState(r *reader) (*elastic.ControllerState, error) {
	cs := &elastic.ControllerState{}
	nMembers, err := r.count("ctrl members", maxCount)
	if err != nil {
		return nil, err
	}
	if nMembers == 0 {
		return nil, fmt.Errorf("%w: controller state without members", ErrCorrupt)
	}
	cs.Members = make([]elastic.MemberState, nMembers)
	for i := range cs.Members {
		ms := &cs.Members[i]
		if ms.ID, err = r.count("ctrl member id", maxID); err != nil {
			return nil, err
		}
		if ms.ID == 0 {
			return nil, fmt.Errorf("%w: ctrl member id 0", ErrCorrupt)
		}
		if ms.Alive, err = r.bool(); err != nil {
			return nil, err
		}
		var mt estimate.MeterState
		if mt.Prior, err = r.f64("meter prior"); err != nil {
			return nil, err
		}
		if mt.Value, err = r.f64("meter value"); err != nil {
			return nil, err
		}
		if mt.Init, err = r.bool(); err != nil {
			return nil, err
		}
		if mt.Count, err = r.count("meter count", maxID); err != nil {
			return nil, err
		}
		if math.IsNaN(mt.Prior) || math.IsInf(mt.Prior, 0) || math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			return nil, fmt.Errorf("%w: non-finite meter state for member %d", ErrCorrupt, ms.ID)
		}
		ms.Meter = mt
	}
	lastReplan, err := r.varint("last replan")
	if err != nil {
		return nil, err
	}
	if lastReplan < -1 || lastReplan > maxID {
		return nil, fmt.Errorf("%w: last replan %d", ErrCorrupt, lastReplan)
	}
	cs.LastReplan = int(lastReplan)
	nEvents, err := r.count("events", maxCount)
	if err != nil {
		return nil, err
	}
	if nEvents > 0 {
		cs.Events = make([]elastic.ReplanEvent, nEvents)
		for i := range cs.Events {
			ev := &cs.Events[i]
			if ev.Iter, err = r.count("event iter", maxID); err != nil {
				return nil, err
			}
			if ev.Epoch, err = r.count("event epoch", maxID); err != nil {
				return nil, err
			}
			nr, err := r.count("event reason", 256)
			if err != nil {
				return nil, err
			}
			if len(r.b) < nr {
				return nil, fmt.Errorf("%w: truncated event reason", ErrCorrupt)
			}
			ev.Reason = string(r.b[:nr])
			r.b = r.b[nr:]
			if ev.Members, err = r.count("event members", maxCount); err != nil {
				return nil, err
			}
			if ev.Imbalance, err = r.f64("event imbalance"); err != nil {
				return nil, err
			}
		}
	}
	return cs, nil
}
