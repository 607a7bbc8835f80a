package plan

import (
	"megaphone/internal/binenc"
	"megaphone/internal/core"
	"megaphone/internal/progress"
)

// Wire codecs of the membership frames (bodies after the kind byte, and for
// barrier frames after the commit epoch). Every parser bounds its counts by
// the bytes left, so a corrupt frame yields an error, never a panic or a
// runaway allocation (FuzzMembershipWire* in memwire_test.go).

// appendSchedule encodes a move schedule as [count]{[epoch][nmoves][moves]}.
func appendSchedule(buf []byte, schedule []timedMoves) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(schedule)))
	for _, tm := range schedule {
		buf = binenc.AppendUvarint(buf, uint64(tm.epoch))
		buf = binenc.AppendUvarint(buf, uint64(len(tm.moves)))
		for i := range tm.moves {
			buf = tm.moves[i].AppendBinaryRec(buf)
		}
	}
	return buf
}

// parseSchedule decodes a schedule appended by appendSchedule, as carried by
// both decision and migration frames.
func parseSchedule(data []byte) ([]timedMoves, []byte, error) {
	ns, data, err := binenc.Count(data, 2) // epoch and move count
	if err != nil {
		return nil, nil, err
	}
	var schedule []timedMoves
	for s := uint64(0); s < ns; s++ {
		var e, nm uint64
		if e, data, err = binenc.Uvarint(data); err != nil {
			return nil, nil, err
		}
		if nm, data, err = binenc.Count(data, 3); err != nil { // a move is >= 3 bytes
			return nil, nil, err
		}
		tm := timedMoves{epoch: core.Time(e), moves: make([]core.Move, nm)}
		for i := range tm.moves {
			if data, err = tm.moves[i].DecodeBinaryRec(data); err != nil {
				return nil, nil, err
			}
		}
		schedule = append(schedule, tm)
	}
	return schedule, data, nil
}

// appendDecision encodes a transition decision and its move schedule.
func appendDecision(buf []byte, tr *Transition, schedule []timedMoves) []byte {
	buf = binenc.AppendUvarint(buf, uint64(tr.Kind))
	buf = binenc.AppendUvarint(buf, uint64(tr.Slot))
	buf = binenc.AppendUvarint(buf, uint64(tr.Epoch))
	buf = binenc.AppendUvarint(buf, tr.MemEpoch)
	buf = binenc.AppendUvarint(buf, uint64(tr.Ckpt))
	return appendSchedule(buf, schedule)
}

// parseDecision decodes a decision frame (sans kind byte). A crash-leave's
// DeadBins are its restore moves' bins.
func parseDecision(data []byte) (*Transition, []timedMoves, error) {
	var k, slot, epoch, mem, ckpt uint64
	var err error
	if k, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if slot, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if epoch, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if mem, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if ckpt, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	tr := &Transition{Kind: TransitionKind(k), Slot: int(slot), Epoch: core.Time(epoch), MemEpoch: mem, Ckpt: core.Time(ckpt)}
	schedule, _, err := parseSchedule(data)
	if err != nil {
		return nil, nil, err
	}
	if tr.Kind == TransitionCrash {
		for _, tm := range schedule {
			for _, m := range tm.moves {
				if m.IsRestore() {
					tr.DeadBins = append(tr.DeadBins, m.Bin)
				}
			}
		}
	}
	return tr, schedule, nil
}

// appendSnap encodes a quiescence report: frontier, then the per-peer sent
// and received dataflow frame counters.
func appendSnap(buf []byte, f core.Time, sent, recv []uint64) []byte {
	buf = binenc.AppendUvarint(buf, uint64(f))
	buf = binenc.AppendUvarint(buf, uint64(len(sent)))
	for _, v := range sent {
		buf = binenc.AppendUvarint(buf, v)
	}
	for _, v := range recv {
		buf = binenc.AppendUvarint(buf, v)
	}
	return buf
}

// parseSnap decodes a report appended by appendSnap and returns the rest.
func parseSnap(data []byte) (*barSnap, []byte, error) {
	f, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	n64, data, err := binenc.Count(data, 2) // one sent and one recv counter per peer
	if err != nil {
		return nil, nil, err
	}
	n := int(n64)
	s := &barSnap{frontier: core.Time(f), sent: make([]uint64, n), recv: make([]uint64, n)}
	for i := 0; i < n; i++ {
		if s.sent[i], data, err = binenc.Uvarint(data); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < n; i++ {
		if s.recv[i], data, err = binenc.Uvarint(data); err != nil {
			return nil, nil, err
		}
	}
	return s, data, nil
}

// appendInventory encodes a barrier inventory: the stable quiescence report
// it certifies, the applied bounds by global worker, and the hold batch.
func appendInventory(buf []byte, snap *barSnap, inv *progress.Batch, bounds map[int]core.Time) []byte {
	buf = appendSnap(buf, snap.frontier, snap.sent, snap.recv)
	buf = binenc.AppendUvarint(buf, uint64(len(bounds)))
	for w, b := range bounds {
		buf = binenc.AppendUvarint(buf, uint64(w))
		buf = binenc.AppendUvarint(buf, uint64(b))
	}
	return inv.AppendWire(buf)
}

// parseInventory decodes an inventory appended by appendInventory.
func parseInventory(data []byte) (*invSnap, error) {
	s, data, err := parseSnap(data)
	if err != nil {
		return nil, err
	}
	is := &invSnap{barSnap: *s}
	nb, data, err := binenc.Count(data, 2) // worker and bound
	if err != nil {
		return nil, err
	}
	is.bounds = make(map[int]core.Time, nb)
	for i := uint64(0); i < nb; i++ {
		var w, b uint64
		if w, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if b, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		is.bounds[int(w)] = core.Time(b)
	}
	if err := is.batch.DecodeWire(data); err != nil {
		return nil, err
	}
	return is, nil
}
