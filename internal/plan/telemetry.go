package plan

import (
	"fmt"
	"sync/atomic"

	"megaphone/internal/core"
)

// telemetry is the one load-telemetry core: it cuts sampling windows from a
// load source and, in a cluster, makes that source cluster-wide. Every
// process samples its own LoadMeter rows on the same cadence and broadcasts
// the increments as core.LoadDelta frames; each process folds the deltas it
// receives into a core.ClusterLoadView, so all of them converge on the same
// worker×bin load matrix. The AutoController uses it for its policy windows
// and the MembershipController for its scale-out/scale-in evaluator.
type telemetry struct {
	// source is what gets sampled: the meter itself single-process, the
	// merged cluster view otherwise. prev is the newest cumulative snapshot
	// and window the newest completed window (nil before the first);
	// windows counts the windows cut so far. Ticking goroutine only.
	source            loadSource
	prev, cur, window *core.LoadSnapshot
	windows           uint64

	// Cluster half; bus is nil single-process.
	bus   ControlBus
	meter *core.LoadMeter
	view  *core.ClusterLoadView
	procs int
	proc  int
	first int // first local worker: rows [first, first+len(prevRecs))

	// Outgoing delta state (ticking goroutine only): previous cumulative
	// row values, so each broadcast carries increments.
	seq                 uint64
	prevRecs, prevNanos [][]uint64
	rowRecs, rowNanos   []uint64
	outDelta            core.LoadDelta
	outBuf              []byte

	// Inbound decode state (bus-serialized handler only). heard[q] latches
	// once any delta from q has been folded, so a consumer can tell "no
	// telemetry yet" apart from "quiet window".
	inDelta core.LoadDelta
	lastSeq []uint64 // highest delta seq folded per origin
	heard   []atomic.Bool
}

// loadSource is anything snapshotable like a LoadMeter; *core.LoadMeter and
// *core.ClusterLoadView both qualify.
type loadSource interface {
	Snapshot(into *core.LoadSnapshot) *core.LoadSnapshot
}

// newTelemetry returns the telemetry core over meter. With a nil bus it
// samples the meter alone; otherwise process proc of procs owns meter rows
// [proc*wpp, (proc+1)*wpp) and exchanges them over the bus (the caller
// registers the bus handler and routes ctrlKindLoad frames to receive).
func newTelemetry(meter *core.LoadMeter, bus ControlBus, procs, proc, wpp int) *telemetry {
	t := &telemetry{source: meter, bus: bus}
	if bus != nil {
		bins := meter.Bins()
		t.meter, t.procs, t.proc, t.first = meter, procs, proc, proc*wpp
		t.view = core.NewClusterLoadView(meter, t.first, wpp)
		t.source = t.view
		t.rowRecs, t.rowNanos = make([]uint64, bins), make([]uint64, bins)
		t.prevRecs, t.prevNanos = make([][]uint64, wpp), make([][]uint64, wpp)
		t.outDelta.Rows = make([]core.LoadDeltaRow, wpp)
		for r := 0; r < wpp; r++ {
			t.prevRecs[r], t.prevNanos[r] = make([]uint64, bins), make([]uint64, bins)
			t.outDelta.Rows[r] = core.LoadDeltaRow{Recs: make([]uint64, bins), Nanos: make([]uint64, bins)}
		}
		t.lastSeq = make([]uint64, procs)
		t.heard = make([]atomic.Bool, procs)
	}
	// Seed the previous snapshot so the first window is a true delta.
	t.prev = t.source.Snapshot(nil)
	return t
}

// sample ends a sampling window: in a cluster it first broadcasts this
// window's local row increments (always, even when empty), then it cuts the
// window from the source. Ticking goroutine only.
func (t *telemetry) sample() {
	if t.bus != nil {
		t.broadcast()
	}
	t.cur = t.source.Snapshot(t.cur)
	t.window = t.cur.Delta(t.prev, t.window)
	t.prev, t.cur = t.cur, t.prev
	t.windows++
}

func (t *telemetry) broadcast() {
	bins := t.meter.Bins()
	t.seq++
	d := &t.outDelta
	d.Proc, d.Seq, d.FirstWorker, d.Bins = t.proc, t.seq, t.first, bins
	for r := range d.Rows {
		t.meter.ReadRow(t.first+r, t.rowRecs, t.rowNanos)
		for b := 0; b < bins; b++ {
			d.Rows[r].Recs[b] = t.rowRecs[b] - t.prevRecs[r][b]
			d.Rows[r].Nanos[b] = t.rowNanos[b] - t.prevNanos[r][b]
			t.prevRecs[r][b] = t.rowRecs[b]
			t.prevNanos[r][b] = t.rowNanos[b]
		}
	}
	t.outBuf = append(t.outBuf[:0], ctrlKindLoad)
	t.outBuf = core.AppendLoadDelta(t.outBuf, d)
	t.bus.BroadcastControl(t.outBuf)
}

// receive folds one inbound load-delta frame body (sans kind byte) into the
// view and returns its origin, or -1 for a duplicate or stale delta (the
// transport is exactly-once; belt and braces). Bus-serialized handler only.
func (t *telemetry) receive(body []byte) (int, error) {
	d := &t.inDelta
	if err := core.DecodeLoadDelta(body, d); err != nil {
		return -1, err
	}
	if d.Proc < 0 || d.Proc >= t.procs {
		return -1, fmt.Errorf("load delta claims origin %d of %d", d.Proc, t.procs)
	}
	if d.Seq <= t.lastSeq[d.Proc] {
		return -1, nil
	}
	if err := t.view.Apply(d); err != nil {
		return -1, err
	}
	t.lastSeq[d.Proc] = d.Seq
	t.heard[d.Proc].Store(true)
	return d.Proc, nil
}

// covered reports whether the merged view spans the cluster: every other
// eligible process has contributed at least one load delta or is suspected
// dead. Until then a window is mostly this process's own rows, and a
// decision taken from it would chase a phantom imbalance.
func (t *telemetry) covered(live *liveness, eligible func(q int) bool) bool {
	for q := 0; q < t.procs; q++ {
		if q == t.proc || !eligible(q) || t.heard[q].Load() {
			continue
		}
		if !live.suspected(q) {
			return false
		}
	}
	return true
}
