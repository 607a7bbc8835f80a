// Package harness drives dataflows the way the paper's evaluation does: an
// open-loop source supplies input at a specified rate even if the system
// becomes unresponsive (e.g. during a migration), a prober measures the lag
// of the output frontier behind each epoch's injection deadline, and
// per-window latency distributions are collected every reporting interval.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/metrics"
	"megaphone/internal/plan"
)

// Options configures an open-loop run. Logical time is the epoch index:
// epoch e's records are injected at wall time start + e*EpochEvery.
type Options struct {
	// Rate is the total offered load in records per second.
	Rate int
	// EpochEvery is the epoch granularity (default 1ms): inputs advance
	// their frontier once per epoch.
	EpochEvery time.Duration
	// Duration is the total run length.
	Duration time.Duration
	// ReportEvery is the latency timeline window (default 250ms, as in the
	// paper).
	ReportEvery time.Duration
	// SampleMemory enables heap sampling into the memory series.
	SampleMemory bool
	// Migrations schedules plans to start at given epochs; each waits for
	// the previous to complete.
	Migrations []Migration
	// TotalInputs and FirstInput describe this process's share of a
	// multi-process run: the cluster has TotalInputs data inputs overall
	// and this process drives the ones at global indexes [FirstInput,
	// FirstInput+len(inputs)). Rate is split across TotalInputs and the
	// generator sees global worker indexes, so the cluster-wide input
	// stream is identical to a single-process run with TotalInputs
	// workers. Zero TotalInputs means len(inputs) (single process).
	TotalInputs int
	FirstInput  int
	// CheckpointEvery issues a checkpoint command on the control stream at
	// every epoch divisible by it (0 disables). The cadence is a pure
	// function of the epoch, so every process of a cluster issues the same
	// commands and the operators merge them into one checkpoint per epoch.
	CheckpointEvery int64
	// StartEpoch is the first epoch driven (default 1). Recovery runs set
	// it to the restored checkpoint's epoch: the generator re-produces
	// epochs from there, which together with the restored state yields the
	// same outputs an uninterrupted run would have emitted from that epoch
	// on. No checkpoint is issued at StartEpoch itself (it would overwrite
	// the checkpoint just restored from).
	StartEpoch int64
}

// Migration schedules a plan to start at a given epoch.
type Migration struct {
	AtEpoch int64
	Plan    plan.Plan
}

// Driver paces migrations and advances the control epochs: the harness
// calls Tick once per epoch and consults Idle/Start/Span for scheduled
// migrations; Checkpoint injects a checkpoint command at the current epoch
// (before Tick advances past it). Both plan.Controller (scripted plans) and
// plan.AutoController (policy-driven plans) satisfy it.
type Driver interface {
	Tick(now core.Time)
	Idle() bool
	Start(p plan.Plan)
	Span() (start, end core.Time, ok bool)
	Checkpoint(now core.Time)
	Close()
}

// Result carries a run's measurements.
type Result struct {
	// Timeline is the per-window latency series (max/p99/p50/p25).
	Timeline *metrics.Timeline
	// Hist is the per-epoch latency distribution over the whole run.
	Hist *metrics.Histogram
	// Memory is the sampled heap size in bytes over time.
	Memory *metrics.Series
	// MigrationSpans records, for each scheduled migration, the wall-clock
	// seconds (relative to run start) at which its plan started and ended
	// and the maximum latency (ms) observed while it ran.
	MigrationSpans []Span
	// Epochs is the last epoch driven (the count, except in recovery runs,
	// which start at Options.StartEpoch rather than 1).
	Epochs int64
	// Records is the number of records injected.
	Records int64
	// Elapsed is the wall-clock seconds from injection start until the
	// dataflow fully drained. When the system keeps up with the offered
	// rate this is ~Duration; when it falls behind, Records/Elapsed is the
	// system's actual sustained throughput.
	Elapsed float64
	// Decisions lists the decisions an AutoController took during the run —
	// issued reconfigurations and cost-model declines alike, including, in
	// cluster runs, decisions mirrored from the elected controller process
	// (filled in by workload runners that install one; empty for scripted
	// migrations).
	Decisions []plan.Decision
	// Load is the final cumulative load snapshot when the run was metered
	// (nil otherwise).
	Load *core.LoadSnapshot
	// Checkpoints lists the completed checkpoints of a checkpointing run
	// (filled in by workload runners from the operator's OnCheckpoint
	// instrumentation; empty otherwise).
	Checkpoints []CheckpointStat
	// RestoreEpoch and RestoreSeconds describe a recovery run: the epoch
	// the run resumed from and the wall-clock cost of loading and
	// verifying the checkpoint (both zero for fresh runs).
	RestoreEpoch   int64
	RestoreSeconds float64
}

// NewDriver wires a run's migration driver: a plain plan.Controller for
// scripted plans, or — when auto is non-nil — an AutoController over
// initial (the default round-robin assignment when nil; a recovering run
// passes its CheckpointPlan.InitialAssignment so the controller's view of
// bin ownership matches the restored routing history). The AutoController
// is also returned directly so the runner can collect its decisions (nil
// otherwise); auto.Meter must already be set.
func NewDriver(auto *plan.AutoOptions, handles []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, bins, workers int, initial plan.Assignment) (Driver, *plan.AutoController) {
	if auto == nil {
		return plan.NewController(handles, probe), nil
	}
	if initial == nil {
		initial = plan.Initial(bins, workers)
	}
	a := plan.NewAutoController(handles, probe, initial, *auto)
	return a, a
}

// FinishAdaptive backfills a metered run's Decisions (when an AutoController
// drove it) and final Load (when a meter is set) into the result.
func (r *Result) FinishAdaptive(auto *plan.AutoController, meter *core.LoadMeter) {
	if auto != nil {
		r.Decisions = auto.Decisions()
	}
	if meter != nil {
		r.Load = meter.Snapshot(nil)
	}
}

// FprintAdaptive writes the decision log and per-worker load report of an
// auto-controlled run — the `# decision` / `# applied records per worker`
// lines shared by every binary. It is a no-op for unmetered runs.
func (r *Result) FprintAdaptive(w io.Writer) {
	for i, d := range r.Decisions {
		if d.Declined {
			fmt.Fprintf(w, "# decision %d: epoch=%d policy=%s DECLINED reason=%s moves=%d window-records=%d volume=%d gain=%d origin=%d\n",
				i+1, int64(d.Epoch), d.Policy, d.Reason, d.Moves, d.WindowRecs, d.Volume, d.Gain, d.Origin)
			continue
		}
		fmt.Fprintf(w, "# decision %d: epoch=%d policy=%s moves=%d steps=%d window-records=%d origin=%d\n",
			i+1, int64(d.Epoch), d.Policy, d.Moves, d.Steps, d.WindowRecs, d.Origin)
	}
	if r.Load != nil {
		total := r.Load.TotalRecs()
		fmt.Fprintf(w, "# applied records per worker:")
		for wi, recs := range r.Load.WorkerRecs {
			share := 0.0
			if total > 0 {
				share = 100 * float64(recs) / float64(total)
			}
			fmt.Fprintf(w, " w%d=%d (%.1f%%)", wi, recs, share)
		}
		fmt.Fprintln(w)
	}
}

// Span is one migration's execution window.
type Span struct {
	Start, End float64 // seconds since run start
	MaxLatency float64 // ms, max observed in [Start, End]
	Duration   float64 // seconds
}

// Gen produces worker w's records for epoch e. The harness splits Rate
// evenly across workers; n is the record budget for this call.
type Gen[T any] func(w int, epoch int64, n int) []T

// Run drives the execution open-loop and returns its measurements.
//
// inputs are the per-worker data handles; ctl is the migration controller
// (its Tick both paces plans and advances the control epochs); probe
// observes the dataflow output.
func Run[T any](
	exec *dataflow.Execution,
	inputs []*dataflow.InputHandle[T],
	ctl Driver,
	probe *dataflow.Probe,
	gen Gen[T],
	opts Options,
) Result {
	if opts.EpochEvery <= 0 {
		opts.EpochEvery = time.Millisecond
	}
	totalEpochs := int64(opts.Duration / opts.EpochEvery)
	perEpoch := int64(float64(opts.Rate) * opts.EpochEvery.Seconds())
	workers := len(inputs)
	totalInputs := opts.TotalInputs
	if totalInputs <= 0 {
		totalInputs = workers
	}
	startEpoch := opts.StartEpoch
	if startEpoch <= 0 {
		startEpoch = 1
	}
	endEpoch := startEpoch + totalEpochs - 1

	res := Result{
		Timeline: metrics.NewTimeline(),
		Hist:     &metrics.Histogram{},
		Memory:   &metrics.Series{Name: "heap-bytes"},
	}

	// Cluster processes reach Run staggered by their own join and preload
	// times, and injection is paced off this process's wall clock — so
	// without alignment, one late process holds every epoch's completion a
	// constant offset behind an early process's deadlines for the whole
	// run, which reads as a flat latency plateau from t=0. Align on
	// cluster-wide readiness: open the data inputs at the start epoch, tick
	// the driver once at the preceding epoch (no plan is active yet, so the
	// only effect is advancing the control stream to the start epoch too),
	// and wait for the output frontier to confirm every process has done
	// the same before starting the clock.
	for _, in := range inputs {
		in.AdvanceTo(core.Time(startEpoch))
	}
	ctl.Tick(core.Time(startEpoch - 1))
	for {
		f := probe.Frontier()
		if f == core.None || int64(f) >= startEpoch {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}

	start := time.Now()
	deadline := func(e int64) time.Time {
		return start.Add(time.Duration(e-startEpoch+1) * opts.EpochEvery)
	}

	prober := startProber(&res, probe, start, deadline, startEpoch, endEpoch, opts.ReportEvery, opts.SampleMemory)

	migIdx := 0
	type pendingSpan struct{ started bool }
	var spanStates []pendingSpan
	for range opts.Migrations {
		spanStates = append(spanStates, pendingSpan{})
	}

	// Open-loop injection: epoch e's records go in at deadline(e) — or as
	// soon as possible if we are running behind, without ever skipping.
	for e := startEpoch; e <= endEpoch; e++ {
		if d := time.Until(deadline(e)); d > 0 {
			time.Sleep(d)
		}
		t := core.Time(e)
		for w := 0; w < workers; w++ {
			g := opts.FirstInput + w // global worker index
			n := int(perEpoch / int64(totalInputs))
			if int64(g) < perEpoch%int64(totalInputs) {
				n++
			}
			if n > 0 {
				batch := gen(g, e, n)
				inputs[w].SendBatchAt(t, batch)
				res.Records += int64(len(batch))
			}
		}
		if opts.CheckpointEvery > 0 && e%opts.CheckpointEvery == 0 && e != startEpoch {
			ctl.Checkpoint(t)
		}
		if migIdx < len(opts.Migrations) && e >= opts.Migrations[migIdx].AtEpoch && ctl.Idle() {
			if !spanStates[migIdx].started {
				ctl.Start(opts.Migrations[migIdx].Plan)
				spanStates[migIdx].started = true
			} else {
				// The plan has completed (controller idle again).
				s, eEnd, ok := ctl.Span()
				if ok {
					res.MigrationSpans = append(res.MigrationSpans, Span{
						Start: float64(s) * opts.EpochEvery.Seconds(),
						End:   float64(eEnd) * opts.EpochEvery.Seconds(),
					})
				}
				migIdx++
			}
		}
		ctl.Tick(t)
		for _, in := range inputs {
			in.AdvanceTo(t + 1)
		}
		res.Epochs = e
	}

	// Shut down: close inputs, drain, stop measurement.
	ctl.Close()
	for _, in := range inputs {
		in.Close()
	}
	exec.Wait()
	res.Elapsed = time.Since(start).Seconds()
	prober.stop()

	// A plan that completed only while draining is captured here.
	if migIdx < len(opts.Migrations) && spanStates[migIdx].started {
		if s, eEnd, ok := ctl.Span(); ok {
			res.MigrationSpans = append(res.MigrationSpans, Span{
				Start: float64(s) * opts.EpochEvery.Seconds(),
				End:   float64(eEnd) * opts.EpochEvery.Seconds(),
			})
		}
	}

	// Fill in migration span latencies.
	for i := range res.MigrationSpans {
		sp := &res.MigrationSpans[i]
		sp.MaxLatency = res.Timeline.MaxOver(sp.Start, sp.End+0.5)
		sp.Duration = sp.End - sp.Start
	}
	return res
}

// prober measures per-epoch latency on its own goroutine: it watches the
// output frontier, and when the frontier passes epoch e it records
// now - deadline(e) into the result's Timeline and Hist, flushing a timeline
// window every reportEvery (and, with sampleMemory, sampling the heap into
// Memory). Every exit path of a run must stop it.
type prober struct {
	res   *Result
	start time.Time
	last  atomic.Int64 // highest epoch to measure
	quit  chan struct{}
	done  chan struct{}
}

// startProber starts measuring epochs [startEpoch, endEpoch] of a run whose
// clock started at start.
func startProber(res *Result, probe *dataflow.Probe, start time.Time, deadline func(int64) time.Time,
	startEpoch, endEpoch int64, reportEvery time.Duration, sampleMemory bool) *prober {
	if reportEvery <= 0 {
		reportEvery = 250 * time.Millisecond
	}
	p := &prober{res: res, start: start, quit: make(chan struct{}), done: make(chan struct{})}
	p.last.Store(endEpoch)
	go func() {
		defer close(p.done)
		lastReported := startEpoch - 1 // epochs <= lastReported measured
		nextFlush := start.Add(reportEvery)
		nextMem := start
		for {
			final := false
			select {
			case <-p.quit:
				final = true
			default:
			}
			now := time.Now()
			f := probe.Frontier()
			passed := p.last.Load()
			if f != core.None && int64(f)-1 < passed {
				passed = int64(f) - 1 // epochs strictly below the frontier are complete
			}
			for e := lastReported + 1; e <= passed; e++ {
				lat := now.Sub(deadline(e)).Nanoseconds()
				res.Timeline.Record(lat)
				res.Hist.Record(lat)
			}
			// The frontier may transiently regress (operators can acquire
			// earlier capabilities while covered by their input frontier);
			// completed epochs stay completed.
			if passed > lastReported {
				lastReported = passed
			}
			if final {
				return
			}
			if !now.Before(nextFlush) {
				res.Timeline.Flush(now.Sub(start).Seconds())
				nextFlush = nextFlush.Add(reportEvery)
			}
			if sampleMemory && !now.Before(nextMem) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				res.Memory.Add(now.Sub(start).Seconds(), float64(ms.HeapAlloc))
				nextMem = now.Add(100 * time.Millisecond)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	return p
}

// limit stops measurement past epoch last: a process leaving mid-run keeps
// seeing the cluster's frontier advance after it closed its inputs, but
// those epochs are not its own.
func (p *prober) limit(last int64) { p.last.Store(last) }

// stop makes one final pass (after the dataflow drained it records every
// remaining epoch), waits for the goroutine to exit and flushes the last
// timeline window.
func (p *prober) stop() {
	close(p.quit)
	<-p.done
	p.res.Timeline.Flush(time.Since(p.start).Seconds())
}
