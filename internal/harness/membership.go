package harness

import (
	"fmt"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/metrics"
	"megaphone/internal/plan"
)

// ClusterFabric bundles the two halves of the runtime the membership
// protocol drives: the local execution (pause/resume, hold inventory,
// tracker reset, views) and the mesh (peer activity, counters, membership
// epoch). Together they satisfy plan.Fabric.
type ClusterFabric struct {
	*dataflow.Execution
	*dataflow.Mesh
}

var _ plan.Fabric = ClusterFabric{}

// MembershipRunOptions configures RunMembership. Every process of the run
// must use identical values apart from LeaveAt.
type MembershipRunOptions struct {
	// Rate is the cluster-wide offered load in records per second;
	// EpochEvery the epoch granularity; Duration the total run length
	// measured from the base start epoch — a joiner admitted at epoch J
	// drives [J, end] of the same global epoch range, so every process
	// computes the same end epoch from the same flags.
	Rate       int
	EpochEvery time.Duration
	Duration   time.Duration
	// TotalInputs is the cluster-wide input count (the full roster's worker
	// count, absent slots included: their slots are covered by the live
	// processes, so the input multiset is membership-independent).
	TotalInputs int
	// CheckpointEvery issues a checkpoint command at every epoch divisible
	// by it. Required in practice: crash-leave restores from the latest
	// complete checkpoint.
	CheckpointEvery int64
	// LeaveAt, when positive, makes this process request drain-leave once
	// its loop passes that epoch.
	LeaveAt int64
	// CrashAt, when positive, makes this process abandon the run abruptly
	// when its loop reaches that epoch: no input close, no goodbye, no FIN —
	// the in-process stand-in for SIGKILL (multi-process fixtures use the
	// real signal). Survivors must declare the slot dead and recover. Keep
	// it away from commit epochs; a process parked in a barrier cannot
	// crash through this hook.
	CrashAt int64
	// CheckpointDir, when set together with CrashAt, delays the abandon
	// until a complete full-roster checkpoint exists: without one the dead
	// member's bins are unrecoverable and the survivors can never declare
	// the death (the scenario every crash fixture scripts is a kill after a
	// durable checkpoint, matching the declaration gate). On a loaded
	// machine the probe frontier can lag the wall-clock epoch by hundreds of
	// epochs, so an unconditional abandon at CrashAt could outrun the first
	// checkpoint's completion.
	CheckpointDir string
}

// RunMembership drives one process of a dynamic-membership run: the
// open-loop injection of Run, plus the membership controller's transitions —
// admission barrier for a joiner, drain-out for a leaver, crash barrier and
// bounded input replay when a member is declared dead. Latency is probed as
// in Run (from this process's first driven epoch, barrier and replay stalls
// included). Scripted migrations are not paced here: the membership
// controller renders them into fixed-epoch move schedules (MovesAt).
func RunMembership[T any](
	fab ClusterFabric,
	mc *plan.MembershipController,
	inputs []*dataflow.InputHandle[T],
	ctl []*dataflow.InputHandle[core.Move],
	probe *dataflow.Probe,
	gen Gen[T],
	binOf func(T) int,
	opts MembershipRunOptions,
) (Result, error) {
	if opts.EpochEvery <= 0 {
		opts.EpochEvery = time.Millisecond
	}
	totalInputs := int64(opts.TotalInputs)
	perEpoch := int64(float64(opts.Rate) * opts.EpochEvery.Seconds())
	nOf := func(g int64) int {
		n := perEpoch / totalInputs
		if g < perEpoch%totalInputs {
			n++
		}
		return int(n)
	}
	endEpoch := int64(opts.Duration / opts.EpochEvery) // base start epoch is 1

	res := Result{Timeline: metrics.NewTimeline(), Hist: &metrics.Histogram{}, Memory: &metrics.Series{Name: "heap-bytes"}}

	settle := func() {
		for {
			ok := true
			for _, in := range inputs {
				ok = ok && in.Settled()
			}
			for _, h := range ctl {
				ok = ok && h.Settled()
			}
			if ok {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Entry: members start at the base epoch and seed the live-only
	// assignment; a joiner asks for admission, advances straight to the
	// commit epoch, and runs the admission barrier before its first epoch.
	startEpoch := int64(1)
	if mc.Joiner() {
		tr, err := mc.AwaitAdmission()
		if err != nil {
			return res, err
		}
		for _, in := range inputs {
			in.AdvanceTo(tr.Epoch)
		}
		for _, h := range ctl {
			h.AdvanceTo(tr.Epoch)
		}
		settle()
		mc.RunBarrier(tr)
		startEpoch = int64(tr.Epoch)
	} else {
		for _, in := range inputs {
			in.AdvanceTo(core.Time(startEpoch))
		}
		for _, h := range ctl {
			h.AdvanceTo(core.Time(startEpoch))
		}
		if mv := mc.InitialMoves(); len(mv) > 0 {
			ctl[0].SendAt(core.Time(startEpoch), mv...)
		}
		// Align on cluster-wide readiness before starting the clock, as Run
		// does: the output frontier reaches the start epoch only once every
		// live process has opened its inputs there.
		for {
			if f := probe.Frontier(); f == core.None || int64(f) >= startEpoch {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	start := time.Now()
	deadline := func(e int64) time.Time {
		return start.Add(time.Duration(e-startEpoch+1) * opts.EpochEvery)
	}
	prober := startProber(&res, probe, start, deadline, startEpoch, endEpoch, 0, false)
	defer prober.stop()

	// replay re-injects, at the crash commit epoch, this process's replay
	// share of the input window the barrier established as lost — per bin,
	// the epochs in [BinCut[bin], Epoch): from the checkpoint epoch for the
	// dead member's bins (their state rolled back there), from the owner's
	// applied bound for everyone else's (applications below it survived in
	// place; records at or above it were purged).
	replay := func(tr *plan.Transition, br plan.BarrierResult, at core.Time) int64 {
		lo := int64(tr.Epoch)
		for _, c := range br.BinCut {
			if int64(c) < lo {
				lo = int64(c)
			}
		}
		var injected int64
		for _, g := range mc.ReplaySlots(tr.Epoch) {
			n := nOf(int64(g))
			if n == 0 {
				continue
			}
			for e := lo; e < int64(tr.Epoch); e++ {
				batch := gen(g, e, n)
				kept := batch[:0]
				for _, r := range batch {
					if core.Time(e) >= br.BinCut[binOf(r)] {
						kept = append(kept, r)
					}
				}
				if len(kept) > 0 {
					inputs[0].SendBatchAt(at, kept)
					injected += int64(len(kept))
				}
			}
		}
		return injected
	}

	leaveCommit := int64(-1) // commit epoch of this process's own drain
	leaveRequested := false
	departing := false
	recoverable := func() bool {
		if opts.CheckpointDir == "" {
			return true
		}
		_, _, ok, err := core.LatestCheckpoint(opts.CheckpointDir, int(totalInputs))
		return err == nil && ok
	}
	for e := startEpoch; e <= endEpoch; e++ {
		if opts.CrashAt > 0 && e >= opts.CrashAt && recoverable() {
			fab.Mesh.Abandon()
			fab.Execution.Halt()
			fab.Execution.Wait()
			res.Elapsed = time.Since(start).Seconds()
			return res, nil
		}
		if d := time.Until(deadline(e)); d > 0 {
			time.Sleep(d)
		}
		t := core.Time(e)

		if tr := mc.NextCommit(); tr != nil && t == tr.Epoch {
			switch tr.Kind {
			case plan.TransitionDrain:
				mc.CommitDrain(tr)
				if tr.Slot == mc.Proc() {
					leaveCommit = e
				}
			default: // join (member side) or crash-leave
				settle()
				br := mc.RunBarrier(tr)
				if tr.Kind == plan.TransitionCrash {
					res.Records += replay(tr, br, t)
				}
			}
		}

		if mv := mc.MovesAt(t); len(mv) > 0 {
			ctl[0].SendAt(t, mv...)
		}
		if opts.CheckpointEvery > 0 && e%opts.CheckpointEvery == 0 && e != startEpoch {
			ctl[0].SendAt(t, core.CheckpointMove())
		}
		for _, g := range mc.Covered(t) {
			n := nOf(int64(g))
			if n == 0 {
				continue
			}
			batch := gen(g, e, n)
			h := inputs[g%len(inputs)]
			if first := mc.Proc() * len(inputs); g >= first && g < first+len(inputs) {
				h = inputs[g-first]
			}
			h.SendBatchAt(t, batch)
			res.Records += int64(len(batch))
		}
		mc.Tick(t)
		for _, in := range inputs {
			in.AdvanceTo(t + 1)
		}
		for _, h := range ctl {
			h.AdvanceTo(t + 1)
		}
		res.Epochs = e

		if opts.LeaveAt > 0 && e >= opts.LeaveAt && !leaveRequested {
			mc.RequestLeave()
			leaveRequested = true
		}
		if leaveCommit >= 0 {
			// Drained out once the frontier passes the commit epoch: the
			// moves at it executed, so our bins are shipped and installed.
			if f := probe.Frontier(); f == core.None || int64(f) > leaveCommit {
				departing = true
				res.Epochs = e
				break
			}
		}
	}

	if departing {
		// Depart: close inputs (the flush drops our capability holds and the
		// progress broadcast retires them cluster-wide), wait for our own
		// frontier to confirm the drops were applied — at which point the
		// retirement frames are queued ahead of anything we send next — then
		// say goodbye (survivors retire this slot on receipt) and FIN out
		// one-sidedly.
		holdEpoch := res.Epochs + 1 // inputs were advanced here before the break
		prober.limit(holdEpoch)
		for _, h := range ctl {
			h.Close()
		}
		for _, in := range inputs {
			in.Close()
		}
		for {
			if f := probe.Frontier(); f == core.None || int64(f) > holdEpoch {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		fab.Mesh.Leave()
		mc.Goodbye()
		fab.Execution.Halt()
		fab.Execution.Wait()
		res.Elapsed = time.Since(start).Seconds()
		return res, nil
	}

	// Normal shutdown: close inputs and drain. A process that outlived a
	// drained or dead peer reaches this with the peer retired, so the
	// shutdown barrier does not wait for it.
	for _, h := range ctl {
		h.Close()
	}
	for _, in := range inputs {
		in.Close()
	}
	fab.Execution.Wait()
	res.Elapsed = time.Since(start).Seconds()
	return res, fab.Execution.Err()
}

// MembershipSpecError builds the common validation error for options that
// membership mode rejects.
func MembershipSpecError(workload, what string) error {
	return fmt.Errorf("%s: %s cannot be combined with dynamic membership", workload, what)
}
