package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/keycount"
)

// spec is one workload's configuration. Workloads that share a spec apart
// from procs and workers differ only in deployment.
type spec struct {
	name    string
	params  keycount.Params // Variant, LogBins, Domain (Transfer is set per phase)
	procs   int             // executions, each joined to a loopback mesh when > 1
	workers int             // workers per execution
	batch   int             // bins per step of a batched migration
}

func (s *spec) totalWorkers() int { return s.procs * s.workers }
func (s *spec) bins() int         { return 1 << uint(s.params.LogBins) }

// deployment is one running instance of a spec: one execution per process,
// all driven from this goroutine. Input and sink slices are indexed by
// global worker index, so a cluster is fed the same streams as the
// single-process run with the same total worker count.
type deployment struct {
	spec    *spec
	execs   []*dataflow.Execution
	meshes  []*dataflow.Mesh
	lns     []*wireListener
	data    []*dataflow.InputHandle[uint64]
	ctl     []*dataflow.InputHandle[core.Move]
	probes  []*dataflow.Probe // one per execution
	handles []*keycount.Handles
	sinks   []*sink
}

// hooks are the traced run's observers, installed on every core.Handle.
type hooks struct {
	onApply   func(t core.Time, bin, worker int)
	onInstall func(t core.Time, bin, worker int)
}

// launch builds, populates and starts the deployment: every key of the
// domain is present in its bin before the first record arrives. The
// control inputs are returned at epoch 0; callers align with start.
func launch(sp *spec, codec core.Codec, hk hooks) (*deployment, error) {
	d := &deployment{spec: sp}
	total := sp.totalWorkers()
	if sp.procs > 1 {
		if err := d.joinMeshes(); err != nil {
			return nil, err
		}
	}
	d.data = make([]*dataflow.InputHandle[uint64], total)
	d.ctl = make([]*dataflow.InputHandle[core.Move], total)
	d.sinks = make([]*sink, total)
	params := sp.params
	params.Transfer = codec
	for p := 0; p < sp.procs; p++ {
		cfg := dataflow.Config{Workers: sp.workers}
		if d.meshes != nil {
			cfg.Mesh = d.meshes[p]
		}
		exec := dataflow.NewExecution(cfg)
		h := &keycount.Handles{
			Hash: &core.Handle[uint64, keycount.HashState, keycount.Out]{OnApply: hk.onApply, OnInstall: hk.onInstall},
			Key:  &core.Handle[uint64, keycount.ArrayState, keycount.Out]{OnApply: hk.onApply, OnInstall: hk.onInstall},
		}
		var probe *dataflow.Probe
		exec.Build(func(w *dataflow.Worker) {
			ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
			in, dataStream := dataflow.NewInput[uint64](w, "data")
			out := keycount.Build(w, params, ctlStream, dataStream, h)
			s := &sink{domain: uint64(params.Domain)}
			attachSink(w, out, s)
			pr := dataflow.NewProbe(w, out)
			if probe == nil {
				probe = pr
			}
			g := w.Index()
			d.data[g], d.ctl[g], d.sinks[g] = in, ctl, s
		})
		populate(params, h, total, p*sp.workers, sp.workers)
		d.execs = append(d.execs, exec)
		d.probes = append(d.probes, probe)
		d.handles = append(d.handles, h)
	}
	for _, e := range d.execs {
		e.Start()
	}
	return d, nil
}

// joinMeshes connects the deployment's processes over loopback TCP, one
// connection per process pair. JoinMesh returns once every peer is up, so
// the processes join concurrently.
func (d *deployment) joinMeshes() error {
	sp := d.spec
	hosts := make([]string, sp.procs)
	for p := range hosts {
		ln, err := listenWire()
		if err != nil {
			d.closeListeners()
			return err
		}
		d.lns = append(d.lns, ln)
		hosts[p] = ln.Addr().String()
	}
	d.meshes = make([]*dataflow.Mesh, sp.procs)
	errs := make([]error, sp.procs)
	var wg sync.WaitGroup
	for p := range hosts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			d.meshes[p], errs[p] = dataflow.JoinMesh(dataflow.ClusterSpec{
				Hosts: hosts, Process: p, Listener: d.lns[p], Conns: 1, DialTimeout: 15 * time.Second,
			})
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.closeListeners()
			return fmt.Errorf("join loopback mesh: %w", err)
		}
	}
	return nil
}

func (d *deployment) closeListeners() {
	for _, ln := range d.lns {
		ln.Close()
	}
}

// populate makes every key of the domain present, through the public
// Handle.Preload, on the workers [first, first+n) that initially own it.
func populate(p keycount.Params, h *keycount.Handles, peers, first, n int) {
	switch p.Variant {
	case keycount.KeyCount:
		// Dense bins hold every key of their range once created.
		keycount.PreloadLocal(p, peers, h, first, n)
	case keycount.HashCount:
		bins := 1 << uint(p.LogBins)
		start := make([]int, bins+1)
		for k := uint64(0); k < uint64(p.Domain); k++ {
			start[core.BinOf(core.Mix64(k), p.LogBins)+1]++
		}
		for b := 0; b < bins; b++ {
			start[b+1] += start[b]
		}
		keys := make([]uint32, p.Domain)
		next := append([]int(nil), start[:bins]...)
		for k := uint64(0); k < uint64(p.Domain); k++ {
			b := core.BinOf(core.Mix64(k), p.LogBins)
			keys[next[b]] = uint32(k)
			next[b]++
		}
		for b := 0; b < bins; b++ {
			w := core.InitialWorker(b, peers)
			if w < first || w >= first+n {
				continue
			}
			bk := keys[start[b]:start[b+1]]
			h.Hash.Preload(w, b, func(s *keycount.HashState) {
				s.M = make(map[uint64]uint64, len(bk))
				for _, k := range bk {
					s.M[uint64(k)] = 0
				}
			})
		}
	}
}

// frontier returns the least output frontier over all processes as an
// epoch: every epoch below it is complete everywhere. A drained dataflow
// reads as MaxInt64.
func (d *deployment) frontier() int64 {
	f := int64(math.MaxInt64)
	for _, p := range d.probes {
		v := p.Frontier()
		if v != dataflow.None && int64(v) < f {
			f = int64(v)
		}
	}
	return f
}

// drainTimeout bounds every wait on the output frontier: a dataflow that
// makes no progress for this long has failed, and the run ends in an error
// instead of hanging.
const drainTimeout = 60 * time.Second

// awaitFrontier naps until every process's output frontier exceeds epoch,
// or reports false after timeout.
func (d *deployment) awaitFrontier(epoch int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for d.frontier() <= epoch {
		if time.Now().After(deadline) {
			return false
		}
		nap(100 * time.Microsecond)
	}
	return true
}

// census sends every key of the domain once at censusEpoch, after the
// timed epochs: each output then reports its key's final count plus one,
// which the sinks record per key.
func (d *deployment) census() {
	domain := uint64(d.spec.params.Domain)
	n := uint64(len(d.data))
	for g, in := range d.data {
		keys := make([]uint64, 0, domain/n+1)
		for k := uint64(g); k < domain; k += n {
			keys = append(keys, k)
		}
		in.SendBatchAt(censusEpoch, keys)
	}
}

// shutdown closes every input and waits for all processes to drain; it
// returns the first fatal fabric error any process reported.
func (d *deployment) shutdown() error {
	for _, in := range d.ctl {
		in.Close()
	}
	for _, in := range d.data {
		in.Close()
	}
	var wg sync.WaitGroup
	for _, e := range d.execs {
		wg.Add(1)
		go func(e *dataflow.Execution) {
			defer wg.Done()
			e.Wait()
		}(e)
	}
	wg.Wait()
	d.closeListeners()
	for _, e := range d.execs {
		if err := e.Err(); err != nil {
			return err
		}
	}
	return nil
}

// frames sums the dataflow frames every process has sent over the mesh.
func (d *deployment) frames() uint64 {
	var n uint64
	for _, m := range d.meshes {
		sent, _ := m.DataCounters()
		for _, v := range sent {
			n += v
		}
	}
	return n
}

// wireBytes sums both directions of every connection process 0 accepted:
// with two processes and one connection per pair that is all cluster
// traffic. A single process has no wire.
func (d *deployment) wireBytes() (uint64, error) {
	if len(d.lns) == 0 {
		return 0, nil
	}
	return d.lns[0].wireBytes()
}

// migrated sums the bins every worker has shipped away.
func (d *deployment) migrated() int {
	n := 0
	for p, h := range d.handles {
		for w := p * d.spec.workers; w < (p+1)*d.spec.workers; w++ {
			if d.spec.params.Variant == keycount.HashCount {
				n += h.Hash.Migrated(w)
			} else {
				n += h.Key.Migrated(w)
			}
		}
	}
	return n
}
