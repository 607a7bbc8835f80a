// Command perfbench is the repository's benchmark. It drives the key-count
// query through the public APIs (keycount.Build, dataflow executions and
// loopback meshes, plan.Controller, core.Handle, core.Codec) from one OS
// process with at most two workers and at most one TCP connection, checks
// every output against a replay of the generated input, and prints its
// metrics as one JSON line.
//
//	perfbench --workload saturate|migrate|cluster --seed N --seconds S --trace 0|1
//
// Every workload runs the same two phases on its own configuration:
//
//   - capacity: a warm-up and five measured closed-loop repetitions, each
//     set up from scratch (epochs of 10k records, at most 8 epochs in
//     flight); capacity is the records injected by all processes over the
//     time from the first injection until every process drained them.
//   - latency: one open-loop run at a fixed rate in 1 ms epochs below
//     saturation, with 32 scripted migrations alternating all-at-once and
//     batched between the round-robin assignment and all bins on worker 0.
//     An epoch's latency runs from its due time until every output
//     frontier passes it.
//
// The untraced run reports the end-to-end metrics: the peak heap during
// all-at-once migrations, which holds still on a shared host, and the
// set-up time. It prints capacity, latency and every migration as
// diagnostics. Wall-clock figures follow the host: on the 2-vCPU guest the
// benchmark was built on, the speed of a bare memory-bound loop changed
// 2.8-fold within twenty minutes, and capacity and migration spikes with
// it. So they are per-layer metrics, reported by the traced run without a
// bound.
//
// With --trace 1 the run instead reports per-layer numbers: the workload's
// phases traced, plus the capacity ladder (key-count on 1 worker, on 2
// workers, and on two 1-worker processes) and one untraced 2-worker
// repetition for the tracing overhead. Spans are written as JSON to
// --trace-dir at exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"megaphone/internal/keycount"
	"megaphone/internal/plan"
)

// The configurations. saturate and cluster differ only in the process
// boundary; ladder1w is saturate on one worker, the single-threaded
// baseline. A batched migration moves migrate's 128 bins 16 at a time; the
// key-count configurations move 32768 bins of 128 bytes, 8192 at a time,
// so that each step's latency spike stands clear of the host's own
// millisecond-scale stalls.
var (
	keyCount = keycount.Params{Variant: keycount.KeyCount, LogBins: 16, Domain: 1 << 20}
	hashFull = keycount.Params{Variant: keycount.HashCount, LogBins: 8, Domain: 1 << 22}

	workloads = map[string]*spec{
		"saturate": {name: "saturate", params: keyCount, procs: 1, workers: 2, batch: 8192},
		"migrate":  {name: "migrate", params: hashFull, procs: 1, workers: 2, batch: 16},
		"cluster":  {name: "cluster", params: keyCount, procs: 2, workers: 1, batch: 8192},
	}
	ladder1w = &spec{name: "ladder-1w", params: keyCount, procs: 1, workers: 1}
)

// capacityReps measured repetitions follow one warm-up repetition of twice
// their length, which absorbs the process's first-execution costs (heap
// growth, page faults) and counts only towards correctness.
const capacityReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "saturate, migrate or cluster")
	seed := flag.Uint64("seed", 1, "workload seed (harness.Workload.Seed)")
	seconds := flag.Int("seconds", 45, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want saturate, migrate or cluster)\n", *workload)
		return 2
	}
	if *seconds < 40 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --seconds in [40, 60] and --trace 0 or 1\n")
		return 2
	}
	// A twentieth of the time per capacity repetition, the rest for latency.
	capDur := time.Duration(*seconds) * time.Second / 20
	latDur := time.Duration(*seconds)*time.Second - (capacityReps+2)*capDur

	var out result
	var v verdict
	var err error
	if *trace == 0 {
		out.Metrics, err = endToEnd(sp, *seed, capDur, latDur, &v)
	} else {
		out.Metrics, err = perLayer(sp, *seed, capDur, latDur, &v, *traceDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	for i, n := range v.notes {
		if i == 10 {
			fmt.Printf("# ... %d more\n", len(v.notes)-i)
			break
		}
		fmt.Printf("# check: %s\n", n)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no samples for %s\n", sp.name, name)
			return 1
		}
	}
	out.Attempted, out.Failed = v.attempted, min(v.failed, v.attempted)
	out.Correct = out.Failed == 0 && !v.selfCheckFailed
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd runs both phases untraced and returns the end-to-end metrics.
func endToEnd(sp *spec, seed uint64, capDur, latDur time.Duration, v *verdict) (map[string]metric, error) {
	var setups []float64
	for rep := 0; rep <= capacityReps; rep++ {
		dur := capDur
		if rep == 0 {
			dur *= 2
		}
		c, err := runCapacity(sp, seed, dur, nil, "")
		if err != nil {
			return nil, err
		}
		v.add(c.verdict)
		if rep > 0 {
			setups = append(setups, c.setup.Seconds())
		}
		fmt.Printf("# capacity rep %d: %.0f records/s (%d records in %.3fs), setup %.3fs, window_wait_frac %.3f\n",
			rep, c.rps(), c.records, c.elapsed.Seconds(), c.setup.Seconds(), c.waitFrac)
	}
	l, err := runLatency(sp, seed, latDur, nil, "")
	if err != nil {
		return nil, err
	}
	v.add(l.verdict)
	setups = append(setups, l.setup.Seconds())
	printLatency(l)

	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"peak_heap_mib": {mean(migValues(l, plan.AllAtOnce, migHeap)), "MiB"},
	}
	return m, nil
}

func printLatency(l latResult) {
	fmt.Printf("# latency: %d steady epochs, p50 %.3fms, p99 %.3fms, injection late p50 %.3fms p99 %.3fms, setup %.3fs\n",
		len(l.steadyMs), percentile(l.steadyMs, 0.5), percentile(l.steadyMs, 0.99),
		percentile(l.lateMs, 0.5), percentile(l.lateMs, 0.99), l.setup.Seconds())
	fmt.Printf("# migrations: median max latency %.3fms all-at-once, %.3fms batched; median batched duration %.3fs; mean peak heap %.1fMiB all-at-once, %.1fMiB batched\n",
		median(migValues(l, plan.AllAtOnce, migMax)), median(migValues(l, plan.Batched, migMax)), median(migValues(l, plan.Batched, migDur)),
		mean(migValues(l, plan.AllAtOnce, migHeap)), mean(migValues(l, plan.Batched, migHeap)))
	for i, m := range l.migs {
		if m.endEpoch == 0 {
			fmt.Printf("# migration %d: %v from epoch %d, unfinished, max latency %.3fms\n", i, m.strategy, m.startEpoch, m.maxMs)
			continue
		}
		fmt.Printf("# migration %d: %v epochs %d-%d, %.3fs, max latency %.3fms, peak heap %.1fMiB\n",
			i, m.strategy, m.startEpoch, m.endEpoch, m.end.Sub(m.start).Seconds(), m.maxMs, migHeap(m))
	}
}

// migValues lists f over the finished migrations of strategy s.
func migValues(l latResult, s plan.Strategy, f func(migStat) float64) []float64 {
	var xs []float64
	for _, m := range l.migs {
		if m.strategy == s && m.endEpoch > 0 {
			xs = append(xs, f(m))
		}
	}
	return xs
}

func migMax(m migStat) float64  { return m.maxMs }
func migDur(m migStat) float64  { return m.end.Sub(m.start).Seconds() }
func migHeap(m migStat) float64 { return float64(m.peakHeap) / (1 << 20) }

// perLayer runs the traced passes and returns the per-layer metrics.
func perLayer(sp *spec, seed uint64, capDur, latDur time.Duration, v *verdict, traceDir string) (map[string]metric, error) {
	tr := newTracer()
	rung := func(s *spec, t *tracer, pass string) (capResult, error) {
		c, err := runCapacity(s, seed, capDur, t, pass)
		v.add(c.verdict)
		return c, err
	}
	r1w, err := rung(ladder1w, tr, "ladder-1w")
	if err != nil {
		return nil, err
	}
	r2w, err := rung(workloads["saturate"], tr, "ladder-2w")
	if err != nil {
		return nil, err
	}
	r2p, err := rung(workloads["cluster"], tr, "ladder-2p")
	if err != nil {
		return nil, err
	}
	plain, err := rung(workloads["saturate"], nil, "")
	if err != nil {
		return nil, err
	}
	var c capResult
	switch sp.name {
	case "saturate":
		c = r2w
	case "cluster":
		c = r2p
	default:
		if c, err = rung(sp, tr, sp.name+"-capacity"); err != nil {
			return nil, err
		}
	}
	l, err := runLatency(sp, seed, latDur, tr, sp.name+"-latency")
	if err != nil {
		return nil, err
	}
	v.add(l.verdict)
	printLatency(l)

	stats := tr.selfTimes()
	for _, s := range stats {
		fmt.Printf("# span %s/%s: %d spans, total %.3fms, self %.3fms\n", s.Pass, s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", sp.name, seed))
	if err := tr.write(path, stats); err != nil {
		return nil, err
	}
	fmt.Printf("# trace: %s\n", path)

	migs := float64(len(l.migs))
	var spread []float64
	for i, m := range l.probe.migs {
		if m.installs != sp.bins()/2 {
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("migration %d installed %d bins, want %d", i, m.installs, sp.bins()/2))
		}
		if l.migs[i].strategy == plan.Batched {
			spread = append(spread, ms(m.lastInstall.Sub(m.start)))
		}
	}
	latPass := sp.name + "-latency"
	epochSelf := findStat(stats, latPass, "epoch")
	migSelf := findStat(stats, latPass, "migration")
	perRec := func(x float64, r capResult) float64 { return x / float64(r.records) }
	m := map[string]metric{
		"harness.gen_ns_per_rec":           {perRec(float64(c.genTime.Nanoseconds()), c), "ns"},
		"harness.inject_late_ms.p99":       {percentile(l.lateMs, 0.99), "ms"},
		"capacity.rps":                     {c.rps(), "1/s"},
		"latency.p50_ms":                   {percentile(l.steadyMs, 0.50), "ms"},
		"latency.p99_ms":                   {percentile(l.steadyMs, 0.99), "ms"},
		"latency.mig_max_ms.all_at_once":   {median(migValues(l, plan.AllAtOnce, migMax)), "ms"},
		"latency.mig_max_ms.batched":       {median(migValues(l, plan.Batched, migMax)), "ms"},
		"latency.mig_dur_s.batched":        {median(migValues(l, plan.Batched, migDur)), "s"},
		"dataflow.inject_us_per_epoch":     {float64(l.injectTime.Microseconds()) / float64(l.epochs), "us"},
		"dataflow.window_wait_frac":        {c.waitFrac, "fraction"},
		"dataflow.cpu_ns_per_rec.1w":       {perRec(float64(r1w.cpu.Nanoseconds()), r1w), "ns"},
		"dataflow.cpu_ns_per_rec.2w":       {perRec(float64(r2w.cpu.Nanoseconds()), r2w), "ns"},
		"dataflow.cpu_ns_per_rec.2p":       {perRec(float64(r2p.cpu.Nanoseconds()), r2p), "ns"},
		"core.applies_per_rec":             {float64(c.applies) / float64(c.records+c.census), "ratio"},
		"core.encode_ms_per_mig":           {ms(l.probe.encode) / migs, "ms"},
		"core.decode_ms_per_mig":           {ms(l.probe.decode) / migs, "ms"},
		"core.encoded_mib_per_mig":         {float64(l.probe.encoded) / (1 << 20) / migs, "MiB"},
		"core.install_spread_ms":           {median(spread), "ms"},
		"core.bins_migrated_per_mig":       {float64(l.migratedBin) / migs, "count"},
		"progress.versions_per_epoch":      {float64(l.versions) / float64(l.epochs), "count"},
		"progress.frontier_lag_epochs.p99": {percentile(l.lagEpochs, 0.99), "epochs"},
		"mesh.frames_per_krec":             {float64(r2p.frames) / (float64(r2p.records) / 1000), "count"},
		"transport.wire_bytes_per_rec":     {perRec(float64(r2p.wire), r2p), "B"},
		"process.alloc_bytes_per_rec":      {perRec(float64(c.rt.allocBytes), c), "B"},
		"process.allocs_per_krec":          {float64(c.rt.allocObjects) / (float64(c.records) / 1000), "count"},
		"process.gc_cycles":                {float64(c.rt.gcCycles), "count"},
		"trace.overhead_rps":               {r2w.rps() - plain.rps(), "1/s"},
		"trace.epoch_self_ms":              {epochSelf.SelfMs / float64(max(epochSelf.Count, 1)), "ms"},
		"trace.migration_self_ms":          {migSelf.SelfMs / float64(max(migSelf.Count, 1)), "ms"},
	}
	return m, nil
}
