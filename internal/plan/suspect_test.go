package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/progress"
)

// nopBus satisfies ControlBus for tests that only exercise the local half of
// the control plane (heartbeat clocks, election) and never need delivery.
type nopBus struct{}

func (nopBus) BroadcastControl([]byte)             {}
func (nopBus) SetControlHandler(func(int, []byte)) {}

// suspectRig wires the liveness and telemetry cores the way a cluster
// AutoController does: the liveness clock counts sampling windows and every
// folded load delta is a heartbeat.
type suspectRig struct {
	live *liveness
	tel  *telemetry
}

// newSuspectState builds the rig for process `proc` of a three-process
// roster, so leaderIndex scans real lower-indexed peers.
func newSuspectState(proc, suspectAfter int) *suspectRig {
	const procs, wpp, logBins = 3, 2, 2
	meter := core.NewLoadMeter(procs*wpp, logBins)
	return &suspectRig{
		live: newLiveness(procs, proc, suspectAfter, 0),
		tel:  newTelemetry(meter, nopBus{}, procs, proc, wpp),
	}
}

// sample ends one sampling window: delta broadcast, window cut, clock
// advance (AutoController.Tick).
func (r *suspectRig) sample() {
	r.tel.sample()
	r.live.advance()
}

// leaderIndex is the elected leader under the fixed-roster rule.
func (r *suspectRig) leaderIndex() int { return r.live.elect(everyone).leader }

// covered is the telemetry coverage gate under the fixed-roster rule.
func (r *suspectRig) covered() bool { return r.tel.covered(r.live, everyone) }

// heard simulates the inbound fold path of a load delta from process q: the
// telemetry core latches q as heard and the handler stamps q's liveness at
// the current local clock (cluster.go onControl).
func heard(cs *suspectRig, q int) {
	cs.live.heard(q)
	cs.tel.heard[q].Store(true)
}

// TestSuspicionNeverWithRegularBeats pins the healthy side of the suspicion
// boundary: a peer heard from at least once every SuspectAfter-1 sampling
// windows is never suspected, so leadership never strays from it.
func TestSuspicionNeverWithRegularBeats(t *testing.T) {
	const suspectAfter = 4
	cs := newSuspectState(2, suspectAfter)
	for w := 1; w <= 12*suspectAfter; w++ {
		cs.sample()
		if w%(suspectAfter-1) == 0 {
			heard(cs, 0)
			heard(cs, 1)
		}
		if got := cs.leaderIndex(); got != 0 {
			t.Fatalf("window %d: leaderIndex = %d; a peer beating every %d windows must never be suspected",
				w, got, suspectAfter-1)
		}
	}
}

// TestSuspicionBoundaryExact pins the exact suspicion edge: a peer that goes
// silent survives SuspectAfter windows of silence and is suspected on the
// next one (silence strictly greater than SuspectAfter windows).
func TestSuspicionBoundaryExact(t *testing.T) {
	const suspectAfter = 4
	cs := newSuspectState(2, suspectAfter)
	heard(cs, 0) // last sign of life at sample clock 0
	heard(cs, 1)
	for w := 1; w <= suspectAfter; w++ {
		cs.sample()
		heard(cs, 1) // peer 1 stays chatty; only peer 0 goes silent
		if got := cs.leaderIndex(); got != 0 {
			t.Fatalf("window %d of %d: peer 0 suspected one window early (leaderIndex = %d)",
				w, suspectAfter, got)
		}
	}
	cs.sample()
	heard(cs, 1)
	if got := cs.leaderIndex(); got != 1 {
		t.Fatalf("window %d: peer 0 still unsuspected after more than SuspectAfter silent windows (leaderIndex = %d)",
			suspectAfter+1, got)
	}
}

// TestSuspicionLateBeatUnsuspects pins recovery: a suspected peer that
// resumes its heartbeat is unsuspected at once and takes leadership back.
func TestSuspicionLateBeatUnsuspects(t *testing.T) {
	const suspectAfter = 3
	cs := newSuspectState(2, suspectAfter)
	for w := 1; w <= suspectAfter+2; w++ {
		cs.sample()
		heard(cs, 1)
	}
	if got := cs.leaderIndex(); got != 1 {
		t.Fatalf("setup: peer 0 should be suspected (leaderIndex = %d)", got)
	}
	heard(cs, 0) // the late beat
	if got := cs.leaderIndex(); got != 0 {
		t.Fatalf("after a late beat peer 0 must be unsuspected (leaderIndex = %d)", got)
	}
	// And suspicion re-arms from the new clock, not the old one.
	for w := 1; w <= suspectAfter; w++ {
		cs.sample()
		heard(cs, 1)
		if got := cs.leaderIndex(); got != 0 {
			t.Fatalf("window %d after recovery: suspicion re-armed early (leaderIndex = %d)", w, got)
		}
	}
	cs.sample()
	heard(cs, 1)
	if got := cs.leaderIndex(); got != 1 {
		t.Fatalf("suspicion did not re-arm after recovery (leaderIndex = %d)", got)
	}
}

// TestSuspicionCoverageGate pins covered(): a silent peer that never sent
// telemetry blocks coverage until its silence exceeds the suspect window.
func TestSuspicionCoverageGate(t *testing.T) {
	const suspectAfter = 4
	cs := newSuspectState(0, suspectAfter)
	heard(cs, 1)
	for w := 1; w <= suspectAfter; w++ {
		cs.sample()
		heard(cs, 1)
		if cs.covered() {
			t.Fatalf("window %d: covered with peer 2 unheard and not yet suspect", w)
		}
	}
	cs.sample()
	heard(cs, 1)
	if !cs.covered() {
		t.Fatal("peer 2 silent past the suspect window must count as covered (suspicion stands in for telemetry)")
	}
}

// nullFabric satisfies Fabric for declaration-gate tests that never run a
// barrier: only the decision-time calls (RetirePeer, InstallView,
// SetMembershipEpoch) land, and nothing observes them.
type nullFabric struct{}

func (nullFabric) Pause()                               {}
func (nullFabric) Resume()                              {}
func (nullFabric) HoldInventory(b *progress.Batch)      {}
func (nullFabric) PurgeDeferred(cut core.Time)          {}
func (nullFabric) AppliedBounds() map[int]core.Time     { return nil }
func (nullFabric) ResetProgress(b *progress.Batch)      {}
func (nullFabric) InstallView(from core.Time, a []bool) {}
func (nullFabric) Activate(p int)                       {}
func (nullFabric) RetirePeer(p int)                     {}
func (nullFabric) SetMembershipEpoch(e uint64)          {}
func (nullFabric) DataCounters() (sent, recv []uint64)  { return nil, nil }

// writeManifests writes manifest files for the given workers at one epoch,
// each recording the given live roster (nil = full roster). Writing a strict
// subset of a manifest's live set models a checkpoint caught mid-commit.
func writeManifests(t *testing.T, dir string, epoch core.Time, peers int, workers, live []int) {
	t.Helper()
	ed := filepath.Join(dir, "count", fmt.Sprintf("epoch-%d", epoch))
	if err := os.MkdirAll(ed, 0o777); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		m := core.Manifest{Op: "count", Epoch: uint64(epoch), Worker: w, Peers: peers, Live: live, Codec: "binary"}
		data, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ed, fmt.Sprintf("manifest-w%d.json", w)), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// newDeclTicker builds a membership controller for process 1 of a
// three-process roster whose peers stay silent: ticking it alone walks
// process 0 through suspicion into death declaration, gated on a complete
// checkpoint in dir.
func newDeclTicker(t *testing.T, dir string) *MembershipController {
	t.Helper()
	return NewMembershipController(MembershipOptions{
		Bus:            nopBus{},
		Fabric:         nullFabric{},
		Frontier:       func() core.Time { return core.None },
		Procs:          3,
		Proc:           1,
		WorkersPerProc: 2,
		Bins:           8,
		SuspectAfter:   2,
		DeathAfter:     2,
		Margin:         3,
		CheckpointDir:  dir,
		Logf:           t.Logf,
	})
}

// TestDeathDeclarationWaitsForCompleteEpoch pins the declaration gate against
// a checkpoint caught mid-commit: suspicion escalates to death-qualification
// while only some of an epoch's live workers have committed their manifests,
// and the declaration must wait — an epoch is complete only when every worker
// the manifests record as live has committed. Once the missing manifest
// lands, the declaration proceeds with that epoch as the restore cut.
func TestDeathDeclarationWaitsForCompleteEpoch(t *testing.T) {
	const peers = 6 // 3 procs * 2 workers
	dir := t.TempDir()
	mc := newDeclTicker(t, dir)

	// A full-roster checkpoint at epoch 2, missing worker 5's manifest: the
	// crash fired mid-commit. Silence qualifies process 0 for death at tick
	// 5; the incomplete epoch must hold the declaration indefinitely.
	writeManifests(t, dir, 2, peers, []int{0, 1, 2, 3, 4}, nil)
	e := core.Time(1)
	for ; e <= 30; e++ {
		mc.Tick(e)
		if tr := mc.NextCommit(); tr != nil {
			t.Fatalf("tick %d: death declared against an incomplete checkpoint epoch: %+v", e, tr)
		}
	}

	// The straggler commits: the epoch is now complete under the roster the
	// manifests record, and the declaration must follow.
	writeManifests(t, dir, 2, peers, []int{5}, nil)
	var tr *Transition
	for ; e <= 60; e++ {
		mc.Tick(e)
		if tr = mc.NextCommit(); tr != nil {
			break
		}
	}
	if tr == nil {
		t.Fatal("death never declared after the checkpoint epoch completed")
	}
	if tr.Kind != TransitionCrash || tr.Slot != 0 || tr.Ckpt != 2 {
		t.Fatalf("crash decision %+v, want process 0 dead with restore cut at epoch 2", tr)
	}
}

// TestDeathDeclarationAcceptsShrunkRoster pins the other half of roster-aware
// completeness: a checkpoint whose manifests record a shrunk live roster is
// complete once exactly those live workers committed — the absent slots'
// missing manifests must not hold the declaration (they will never arrive).
func TestDeathDeclarationAcceptsShrunkRoster(t *testing.T) {
	const peers = 6
	dir := t.TempDir()
	mc := newDeclTicker(t, dir)

	// Workers 2..5 (processes 1 and 2) are the recorded live roster; the
	// suspect's workers 0 and 1 have no manifests, by design.
	writeManifests(t, dir, 3, peers, []int{2, 3, 4, 5}, []int{2, 3, 4, 5})
	var tr *Transition
	for e := core.Time(1); e <= 60; e++ {
		mc.Tick(e)
		if tr = mc.NextCommit(); tr != nil {
			break
		}
	}
	if tr == nil {
		t.Fatal("death never declared against a complete shrunk-roster checkpoint")
	}
	if tr.Kind != TransitionCrash || tr.Slot != 0 || tr.Ckpt != 3 {
		t.Fatalf("crash decision %+v, want process 0 dead with restore cut at epoch 3", tr)
	}
}
