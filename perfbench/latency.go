package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// The open loop's schedule. Epochs are 1 ms; migrations start after a
// warm-up, are spread evenly over the run, and leave a tail so the last one
// finishes before the inputs close. An epoch belongs to a migration's
// window from the migration's first step until settleEpochs after the
// controller went idle, while the backlog it caused drains; a longer
// settle only adds host stalls unrelated to the migration to its maximum.
const (
	// openLoopRate (records/s) is well below saturation for every
	// configuration: a sixth of migrate's capacity, the lowest, on a
	// 2-vCPU host.
	openLoopRate = 500_000
	epochEvery   = time.Millisecond
	warmEpochs   = 1000
	tailEpochs   = 1000
	settleEpochs = 50
	// migrations per run: an even number of each strategy, in the order
	// A B B A A B B A ..., so that each strategy moves the state in both
	// directions equally often. Sixteen of each steady their medians.
	migrations = 32
)

var strategyOrder = [4]plan.Strategy{plan.AllAtOnce, plan.Batched, plan.Batched, plan.AllAtOnce}

// migStat is one migration as the driver saw it.
type migStat struct {
	strategy             plan.Strategy
	startEpoch, endEpoch int64
	start, end           time.Time
	maxMs                float64 // largest epoch latency in its window
	peakHeap             uint64  // largest heap object bytes sampled in its window
}

// latResult is one open-loop run at a fixed rate below saturation.
type latResult struct {
	setup    time.Duration
	epochs   int64
	steadyMs []float64 // latency of every epoch outside warm-up and migration windows
	lateMs   []float64 // injection lateness of the same epochs as steadyMs
	migs     []migStat
	verdict  verdict

	// traced only
	injectTime  time.Duration // SendBatchAt + AdvanceTo, summed
	versions    uint64        // progress tracker versions over the timed epochs
	lagEpochs   []float64     // injected epoch minus output frontier, once per epoch
	migratedBin int           // Handle.Migrated summed over workers
	probe       *migProbe
}

// migrationPlans alternates strategies as strategyOrder and directions
// between the round-robin assignment and all bins on worker 0, so every
// migration moves the same half of the bins. Batched steps move sp.batch
// bins each.
func migrationPlans(sp *spec) []plan.Plan {
	bins := sp.bins()
	initial := plan.Initial(bins, sp.totalWorkers())
	packed := plan.Rebalance(bins, []int{0})
	plans := make([]plan.Plan, migrations)
	for i := range plans {
		from, to := initial, packed
		if i%2 == 1 {
			from, to = packed, initial
		}
		plans[i] = plan.Build(strategyOrder[i%len(strategyOrder)], from, to, sp.batch)
	}
	return plans
}

// runLatency sets up sp, drives it open-loop at openLoopRate for dur with the
// scripted migrations, and verifies every output. Epoch latency runs from
// the epoch's due time to the moment every process's output frontier
// passes it.
func runLatency(sp *spec, seed uint64, dur time.Duration, tr *tracer, pass string) (latResult, error) {
	var res latResult
	epochs := int64(dur / epochEvery)
	if epochs < warmEpochs+tailEpochs+migrations*700 {
		return res, fmt.Errorf("latency phase of %v is too short for %d migrations", dur, migrations)
	}
	res.epochs = epochs
	total := sp.totalWorkers()
	perInput := int(openLoopRate*int64(epochEvery)/int64(time.Second)) / total

	codec := core.TransferBinary
	var hk hooks
	if tr != nil {
		res.probe = &migProbe{Codec: core.TransferBinary, tr: tr, pass: pass, span: -1}
		codec = res.probe
		hk.onInstall = res.probe.onInstall
	}

	// Start from a collected heap, so earlier phases' garbage and the
	// collector's pacing after them leak neither into set-up nor into the
	// measurement.
	runtime.GC()
	t0 := time.Now()
	d, err := launch(sp, codec, hk)
	if err != nil {
		return res, err
	}
	ctl := plan.NewController(d.ctl, d.probes[0])
	for _, in := range d.data {
		in.AdvanceTo(1)
	}
	ctl.Tick(0)
	if !d.awaitFrontier(0, drainTimeout) {
		return res, fmt.Errorf("%s: processes did not align", sp.name)
	}
	res.setup = time.Since(t0)

	wl := harness.Workload{Seed: seed}
	domain := uint64(sp.params.Domain)
	plans := migrationPlans(sp)
	period := (epochs - warmEpochs - tailEpochs) / migrations
	res.migs = make([]migStat, 0, migrations)
	done := make([]time.Time, epochs+1) // written by the prober only
	late := make([]float64, epochs+1)
	var epochSpans []int
	if tr != nil {
		epochSpans = make([]int, epochs+1)
	}
	heap := newHeapSampler()

	start := time.Now()
	due := func(e int64) time.Time { return start.Add(time.Duration(e) * epochEvery) }
	var stopProbe atomic.Bool
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		last := int64(0)
		for polls := 0; last < epochs && !stopProbe.Load(); polls++ {
			f := d.frontier()
			now := time.Now()
			for last+1 < f && last < epochs {
				last++
				done[last] = now
			}
			if polls%20 == 0 {
				heap.Sample()
			}
			nap(100 * time.Microsecond)
		}
	}()

	versions0 := d.execs[0].Tracker().Version()
	var active *migStat
	for e := int64(1); e <= epochs; e++ {
		napUntil(due(e))
		g0 := time.Now()
		late[e] = ms(g0.Sub(due(e)))
		batches := make([][]uint64, total)
		for g := range batches {
			batches[g] = make([]uint64, perInput)
			wl.Fill(batches[g], domain, g, e)
		}
		g1 := time.Now()
		t := core.Time(e)
		if active != nil && ctl.Idle() {
			active.endEpoch, active.end = e, g1
			res.probe.end(g1)
			active = nil
		}
		if i := len(res.migs); active == nil && i < migrations && e >= warmEpochs+int64(i)*period {
			ctl.Start(plans[i])
			res.migs = append(res.migs, migStat{strategy: plans[i].Strategy, startEpoch: e, start: g1})
			active = &res.migs[i]
			res.probe.begin(g1)
		}
		ctl.Tick(t)
		k0 := time.Now()
		for g, in := range d.data {
			in.SendBatchAt(t, batches[g])
		}
		for _, in := range d.data {
			in.AdvanceTo(t + 1)
		}
		k1 := time.Now()
		res.injectTime += k1.Sub(k0)
		if tr != nil {
			id := tr.open(pass, "epoch", -1, due(e))
			epochSpans[e] = id
			tr.add(pass, "gen", id, g0, g1)
			tr.add(pass, "tick", id, g1, k0)
			tr.add(pass, "inject", id, k0, k1)
			res.lagEpochs = append(res.lagEpochs, float64(e-min(d.frontier(), e)))
		}
	}
	drained := d.awaitFrontier(epochs, drainTimeout)
	if !drained {
		stopProbe.Store(true)
	}
	probeWG.Wait()
	if !drained {
		return res, fmt.Errorf("%s: output frontier stuck below epoch %d for %v", sp.name, epochs, drainTimeout)
	}
	res.versions = d.execs[0].Tracker().Version() - versions0
	if active != nil {
		res.verdict.notes = append(res.verdict.notes, fmt.Sprintf("migration %d did not finish within the run", len(res.migs)-1))
	}

	d.census()
	runErr := d.shutdown()
	res.migratedBin = d.migrated()
	migErrs := 0
	if want := len(res.migs) * sp.bins() / 2; res.migratedBin != want {
		migErrs++
		res.verdict.notes = append(res.verdict.notes, fmt.Sprintf("workers shipped %d bins in %d migrations, want %d", res.migratedBin, len(res.migs), want))
	}

	// Latencies and migration windows.
	lat := make([]float64, epochs+1)
	for e := int64(1); e <= epochs; e++ {
		lat[e] = ms(done[e].Sub(due(e)))
	}
	for e := 1; e < len(epochSpans); e++ {
		tr.closeAt(epochSpans[e], done[e])
	}
	inWindow := make([]bool, epochs+1)
	for i := range res.migs {
		m := &res.migs[i]
		hi := epochs
		if m.endEpoch > 0 {
			hi = min(epochs, m.endEpoch+settleEpochs)
		}
		for e := m.startEpoch; e <= hi; e++ {
			inWindow[e] = true
			m.maxMs = max(m.maxMs, lat[e])
		}
		m.peakHeap = heap.peak(m.start, due(hi))
	}
	for e := int64(warmEpochs + 1); e <= epochs; e++ {
		if !inWindow[e] {
			res.steadyMs = append(res.steadyMs, lat[e])
			res.lateMs = append(res.lateMs, late[e])
		}
	}

	ref := buildReference(wl, domain, total, perInput, epochs)
	v := verify(ref, d.sinks, epochs)
	v.notes = append(res.verdict.notes, v.notes...)
	if active != nil {
		v.failed++ // the unfinished migration's epochs were measured without its end
	}
	v.failed += migErrs
	res.verdict = v
	if runErr != nil {
		res.verdict.failAll(runErr)
	} else if lateP50 := percentile(res.lateMs, 0.5); lateP50 > ms(epochEvery) {
		// Injection ran late on most epochs: the driver could not offer the
		// rate, so it, not the system, set the pace and no latency holds.
		res.verdict.failAll(fmt.Errorf("driver-late: injection ran %.3fms late at the median", lateP50))
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// migProbe observes migrations in the traced run. It wraps the codec passed
// in Params.Transfer, timing every EncodeBin and DecodeBin, and receives
// Handle.OnInstall. Spans it records are children of the current
// migration's span. A nil *migProbe ignores begin and end.
type migProbe struct {
	core.Codec
	tr   *tracer
	pass string

	mu             sync.Mutex
	span           int // current migration span, -1 between migrations
	migs           []migTrace
	lastDecodeEnd  time.Time
	encode         time.Duration
	decode         time.Duration
	encoded        uint64 // payload bytes
	encRun, decRun spanRun
	installRun     spanRun
}

// spanRun is the latest span of one kind. A migration of tens of thousands
// of small bins would record a span per bin; calls that follow each other
// within coalesceGap extend the previous span instead, so the trace holds a
// few spans per step and the children still cover what they covered.
type spanRun struct {
	id  int
	end time.Time
}

const coalesceGap = 20 * time.Microsecond

// record adds or extends a span of r's kind; p.mu must be held.
func (p *migProbe) record(r *spanRun, name string, start, end time.Time) {
	if r.id >= 0 && start.Sub(r.end) < coalesceGap {
		p.tr.closeAt(r.id, end)
	} else {
		r.id = p.tr.add(p.pass, name, p.span, start, end)
	}
	r.end = end
}

// migTrace is what the hooks saw of one migration.
type migTrace struct {
	start, lastInstall time.Time
	installs           int
}

func (p *migProbe) begin(now time.Time) {
	if p == nil {
		return
	}
	span := p.tr.open(p.pass, "migration", -1, now)
	p.mu.Lock()
	p.span = span
	p.encRun, p.decRun, p.installRun = spanRun{id: -1}, spanRun{id: -1}, spanRun{id: -1}
	p.migs = append(p.migs, migTrace{start: now})
	p.mu.Unlock()
}

func (p *migProbe) end(now time.Time) {
	if p == nil {
		return
	}
	p.mu.Lock()
	span := p.span
	p.span = -1
	p.mu.Unlock()
	p.tr.closeAt(span, now)
}

func (p *migProbe) EncodeBin(bin core.Migratable, buf []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := p.Codec.EncodeBin(bin, buf)
	t1 := time.Now()
	p.mu.Lock()
	p.encode += t1.Sub(t0)
	p.encoded += uint64(len(out) - len(buf))
	p.record(&p.encRun, "core.encode_bin", t0, t1)
	p.mu.Unlock()
	return out, err
}

func (p *migProbe) DecodeBin(bin core.Migratable, data []byte) error {
	t0 := time.Now()
	err := p.Codec.DecodeBin(bin, data)
	t1 := time.Now()
	p.mu.Lock()
	p.decode += t1.Sub(t0)
	p.lastDecodeEnd = t1
	p.record(&p.decRun, "core.decode_bin", t0, t1)
	p.mu.Unlock()
	return err
}

// onInstall is Handle.OnInstall. A bin installs right after its decode on
// the receiving worker, and every migration here has one receiver, so the
// install span runs from the latest decode's end. Installs of small bins
// alternate with their decodes within coalesceGap, so a run of them also
// spans the decodes between; the union the parent's self time subtracts
// is unchanged.
func (p *migProbe) onInstall(core.Time, int, int) {
	now := time.Now()
	p.mu.Lock()
	if n := len(p.migs); n > 0 {
		p.migs[n-1].installs++
		p.migs[n-1].lastInstall = now
	}
	p.record(&p.installRun, "core.install", p.lastDecodeEnd, now)
	p.mu.Unlock()
}
