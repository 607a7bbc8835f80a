package plan

import (
	"reflect"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/progress"
)

// Fuzz targets for the membership wire parsers. Each must never panic on any
// input, and every input it accepts must survive a re-encode unchanged:
// parse(encode(parse(x))) == parse(x). Seeds are frames of the shapes the
// membership protocol tests exchange: a join's seed-plus-rebalance schedule,
// a drain's moves, a crash's restore moves, and three-process barrier
// reports.

func seedSchedules() [][]timedMoves {
	return [][]timedMoves{
		nil,
		{{epoch: 9, moves: []core.Move{{Bin: 0, Worker: 4}, {Bin: 5, Worker: 0}}},
			{epoch: 13, moves: []core.Move{{Bin: 2, Worker: 4}, {Bin: 6, Worker: 5}}}},
		{{epoch: 21, moves: []core.Move{{Bin: 1, Worker: 0}, {Bin: 3, Worker: 2}}}},
		{{epoch: 40, moves: []core.Move{core.RestoreMove(4, 0, 30), core.RestoreMove(5, 1, 30)}},
			{epoch: 41, moves: []core.Move{core.CheckpointMove()}}},
	}
}

func FuzzParseSchedule(f *testing.F) {
	for _, s := range seedSchedules() {
		f.Add(appendSchedule(nil, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := parseSchedule(data)
		if err != nil {
			return
		}
		s2, rest2, err := parseSchedule(append(appendSchedule(nil, s), rest...))
		if err != nil || !reflect.DeepEqual(s, s2) || !reflect.DeepEqual(rest, rest2) {
			t.Fatalf("schedule did not round-trip: %+v (rest %x) became %+v (rest %x), err %v", s, rest, s2, rest2, err)
		}
	})
}

func FuzzParseDecision(f *testing.F) {
	sch := seedSchedules()
	f.Add(appendDecision(nil, &Transition{Kind: TransitionJoin, Slot: 2, Epoch: 9, MemEpoch: 1}, sch[1]))
	f.Add(appendDecision(nil, &Transition{Kind: TransitionDrain, Slot: 1, Epoch: 21, MemEpoch: 2}, sch[2]))
	f.Add(appendDecision(nil, &Transition{Kind: TransitionCrash, Slot: 2, Epoch: 40, MemEpoch: 3, Ckpt: 30}, sch[3]))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, s, err := parseDecision(data)
		if err != nil {
			return
		}
		tr2, s2, err := parseDecision(appendDecision(nil, tr, s))
		if err != nil || !reflect.DeepEqual(tr, tr2) || !reflect.DeepEqual(s, s2) {
			t.Fatalf("decision did not round-trip: %+v %+v became %+v %+v, err %v", tr, s, tr2, s2, err)
		}
	})
}

func FuzzParseSnap(f *testing.F) {
	f.Add(appendSnap(nil, 9, []uint64{0, 17, 4}, []uint64{0, 12, 9}))
	f.Add(appendSnap(nil, core.None, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := parseSnap(data)
		if err != nil {
			return
		}
		s2, rest2, err := parseSnap(append(appendSnap(nil, s.frontier, s.sent, s.recv), rest...))
		if err != nil || !reflect.DeepEqual(s, s2) || !reflect.DeepEqual(rest, rest2) {
			t.Fatalf("snapshot did not round-trip: %+v became %+v, err %v", s, s2, err)
		}
	})
}

func FuzzParseInventory(f *testing.F) {
	var inv progress.Batch
	inv.Add(progress.Location(101), 7, 2)
	inv.Add(progress.Location(102), 40, -1)
	snap := &barSnap{frontier: 40, sent: []uint64{3, 0, 8}, recv: []uint64{5, 0, 2}}
	f.Add(appendInventory(nil, snap, &inv, map[int]core.Time{2: 44, 3: 41}))
	f.Add(appendInventory(nil, &barSnap{}, &progress.Batch{}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		is, err := parseInventory(data)
		if err != nil {
			return
		}
		is2, err := parseInventory(appendInventory(nil, &is.barSnap, &is.batch, is.bounds))
		if err != nil || !reflect.DeepEqual(is, is2) {
			t.Fatalf("inventory did not round-trip: %+v became %+v, err %v", is, is2, err)
		}
	})
}
