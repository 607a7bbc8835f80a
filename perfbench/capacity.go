package main

import (
	"fmt"
	"runtime"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/harness"
)

// The closed loop's shape: each epoch carries closedEpochRecs records split
// evenly over the inputs, and epoch e is injected only once every epoch up
// to e-closedWindow has completed everywhere. The window bounds in-flight
// work, so the envelope pools stay effective, while keeping the workers
// busy between the driver's frontier checks.
const (
	closedEpochRecs = 10000
	closedWindow    = 8
)

// minWaitFrac is the least share of its time the closed loop's driver must
// spend waiting on the frontier. A driver that waits less is itself the
// bottleneck: it, not the system, set the pace, and the repetition
// measures nothing.
const minWaitFrac = 0.5

// capResult is one closed-loop capacity measurement.
type capResult struct {
	setup    time.Duration
	records  int64         // injected by all processes in timed epochs
	elapsed  time.Duration // first injection until every process drained them
	waitFrac float64       // share of the injection phase spent waiting on the frontier
	genTime  time.Duration // in Workload.Fill
	cpu      time.Duration // process CPU over the timed phase
	rt       runtimeCounters
	frames   uint64 // mesh frames sent, all processes
	wire     uint64 // TCP payload bytes, both directions
	applies  uint64 // Handle.OnApply calls, timed and census records
	census   int64  // census records
	verdict  verdict
}

func (r capResult) rps() float64 { return float64(r.records) / r.elapsed.Seconds() }

// runCapacity sets up sp, drives it closed-loop for dur and verifies every
// output. With a tracer it records epoch, gen, inject and window_wait spans
// under pass and counts applies through Handle.OnApply.
func runCapacity(sp *spec, seed uint64, dur time.Duration, tr *tracer, pass string) (capResult, error) {
	var res capResult
	total := sp.totalWorkers()
	var applies []paddedCount
	var hk hooks
	if tr != nil {
		applies = make([]paddedCount, total)
		hk.onApply = func(_ core.Time, _ int, w int) { applies[w].n++ }
	}
	// Start from a collected heap, so earlier phases' garbage and the
	// collector's pacing after them leak neither into set-up nor into the
	// measurement.
	runtime.GC()
	t0 := time.Now()
	d, err := launch(sp, core.TransferBinary, hk)
	if err != nil {
		return res, err
	}
	for _, in := range d.data {
		in.AdvanceTo(1)
	}
	for _, in := range d.ctl {
		in.AdvanceTo(1)
	}
	if !d.awaitFrontier(0, drainTimeout) {
		return res, fmt.Errorf("%s: processes did not align", sp.name)
	}
	res.setup = time.Since(t0)

	wl := harness.Workload{Seed: seed}
	domain := uint64(sp.params.Domain)
	perInput := closedEpochRecs / total
	samples := newSamples()
	frames0 := d.frames()
	wire0, werr := d.wireBytes()
	rt0 := readCounters(samples)
	cpu0 := cpuTime()

	type openEpoch struct {
		e    int64
		span int
	}
	var inFlight []openEpoch // traced epochs not yet seen complete
	closeDone := func(f int64, now time.Time) {
		for len(inFlight) > 0 && inFlight[0].e < f {
			tr.closeAt(inFlight[0].span, now)
			inFlight = inFlight[1:]
		}
	}

	var waiting time.Duration
	batches := make([][]uint64, total)
	start := time.Now()
	stop := start.Add(dur)
	e := int64(1)
	for {
		now := time.Now()
		if !now.Before(stop) {
			break
		}
		f := d.frontier()
		closeDone(f, now)
		if e-closedWindow >= f {
			for {
				nap(100 * time.Microsecond)
				f = d.frontier()
				if e-closedWindow < f || !time.Now().Before(stop) {
					break
				}
			}
			w1 := time.Now()
			waiting += w1.Sub(now)
			tr.add(pass, "window_wait", -1, now, w1)
			closeDone(f, w1)
			continue
		}
		g0 := time.Now()
		for g := range batches {
			batches[g] = make([]uint64, perInput)
			wl.Fill(batches[g], domain, g, e)
		}
		g1 := time.Now()
		t := core.Time(e)
		for g, in := range d.data {
			in.SendBatchAt(t, batches[g])
		}
		for _, in := range d.data {
			in.AdvanceTo(t + 1)
		}
		for _, in := range d.ctl {
			in.AdvanceTo(t + 1)
		}
		i1 := time.Now()
		res.genTime += g1.Sub(g0)
		if tr != nil {
			id := tr.open(pass, "epoch", -1, g0)
			tr.add(pass, "gen", id, g0, g1)
			tr.add(pass, "inject", id, g1, i1)
			inFlight = append(inFlight, openEpoch{e, id})
		}
		e++
	}
	injectEnd := time.Now()
	last := e - 1
	if !d.awaitFrontier(last, drainTimeout) {
		return res, fmt.Errorf("%s: output frontier stuck below epoch %d for %v", sp.name, last, drainTimeout)
	}
	end := time.Now()
	closeDone(last+1, end)
	res.elapsed = end.Sub(start)
	res.cpu = cpuTime() - cpu0
	rt1 := readCounters(samples)
	res.rt = runtimeCounters{
		allocBytes:   rt1.allocBytes - rt0.allocBytes,
		allocObjects: rt1.allocObjects - rt0.allocObjects,
		gcCycles:     rt1.gcCycles - rt0.gcCycles,
	}
	res.waitFrac = waiting.Seconds() / injectEnd.Sub(start).Seconds()
	res.records = last * closedEpochRecs
	res.frames = d.frames() - frames0
	if werr == nil {
		var wire1 uint64
		wire1, werr = d.wireBytes()
		res.wire = wire1 - wire0
	}

	d.census()
	res.census = sp.params.Domain
	runErr := d.shutdown()
	for i := range applies {
		res.applies += applies[i].n
	}

	ref := buildReference(wl, domain, total, perInput, last)
	res.verdict = verify(ref, d.sinks, last)
	if runErr != nil {
		res.verdict.failAll(runErr)
	} else if res.waitFrac < minWaitFrac {
		res.verdict.failAll(fmt.Errorf("driver-paced: the driver waited on the frontier %.0f%% of the time", 100*res.waitFrac))
	}
	return res, werr
}

// paddedCount is a per-worker counter on its own cache line: each worker
// writes only its own, and readers wait for the execution to finish.
type paddedCount struct {
	n uint64
	_ [56]byte
}
