package main

import (
	"fmt"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
)

// censusEpoch is the timestamp of the closing census, far past any timed
// epoch.
const censusEpoch core.Time = 1 << 40

// fingerprint hashes one output record. Summed over an epoch's outputs it
// identifies the epoch's (key, count) multiset independently of order.
func fingerprint(key, count uint64) uint64 { return core.Mix64(key<<32 ^ count) }

// epochOut is the number of outputs at one epoch and their fingerprint sum.
type epochOut struct{ n, fp uint64 }

// sink is one worker's observer of the query's output. Per record it only
// adds a fingerprint, so it costs the measured path little; the census
// epoch alone is recorded per key.
type sink struct {
	domain uint64
	epochs []epochOut // by epoch
	census []uint32   // by key, filled by the census epoch
}

func (s *sink) take(t core.Time, data []keycount.Out) {
	if t == censusEpoch {
		if s.census == nil {
			s.census = make([]uint32, s.domain)
		}
		for _, o := range data {
			s.census[o.Key] = uint32(o.Count)
		}
		return
	}
	for uint64(len(s.epochs)) <= uint64(t) {
		s.epochs = append(s.epochs, epochOut{})
	}
	e := &s.epochs[t]
	e.n += uint64(len(data))
	for _, o := range data {
		e.fp += fingerprint(o.Key, o.Count)
	}
}

// attachSink consumes the query's output on worker w into s.
func attachSink(w *dataflow.Worker, out dataflow.Stream[keycount.Out], s *sink) {
	b := w.NewOp("bench-sink", 0)
	dataflow.Connect(b, out, dataflow.Pipeline[keycount.Out]{})
	b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, s.take)
	})
}

// reference replays the generator — deterministic in (seed, input, epoch)
// — and counts the keys the way the query must: per epoch the expected
// output fingerprint, and per key the final count.
type reference struct {
	epochs []epochOut // by epoch; index 0 unused
	counts []uint32   // by key
}

func buildReference(wl harness.Workload, domain uint64, inputs int, perInput int, epochs int64) reference {
	ref := reference{epochs: make([]epochOut, epochs+1), counts: make([]uint32, domain)}
	buf := make([]uint64, perInput)
	for e := int64(1); e <= epochs; e++ {
		var out epochOut
		for g := 0; g < inputs; g++ {
			wl.Fill(buf, domain, g, e)
			for _, k := range buf {
				ref.counts[k]++
				out.fp += fingerprint(k, uint64(ref.counts[k]))
			}
			out.n += uint64(len(buf))
		}
		ref.epochs[e] = out
	}
	return ref
}

// verdict counts operations: one per timed epoch plus the census. An epoch
// fails when its outputs' count or fingerprint differ from the reference;
// the census fails when any key's final count does.
type verdict struct {
	attempted, failed int
	selfCheckFailed   bool // the check itself missed a planted error
	notes             []string
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.selfCheckFailed = v.selfCheckFailed || o.selfCheckFailed
	v.notes = append(v.notes, o.notes...)
}

// failAll marks every operation of the phase failed: the run ended in an
// error, so no output can be trusted.
func (v *verdict) failAll(err error) {
	v.failed = v.attempted
	v.notes = append(v.notes, fmt.Sprintf("run error: %v", err))
}

// verify compares the sinks' observations with the reference. It also
// proves the comparison live: the same comparison run on copies of the
// sinks with one timed epoch's output and one key's census count corrupted
// must fail exactly one more epoch and the census.
func verify(ref reference, sinks []*sink, epochs int64) verdict {
	v := verdict{attempted: int(epochs) + 1}
	c := compare(ref, sinks, epochs, &v.notes)
	v.failed = c.epochs
	if c.stray > 0 || c.census > 0 {
		v.failed++ // charged to the census: the final state cannot be trusted
	}
	if c.census > 0 {
		v.notes = append(v.notes, fmt.Sprintf("census: %d keys with a wrong final count (first: key %d)", c.census, c.firstBad))
	}
	planted, what := corrupt(sinks, epochs, len(ref.counts))
	var discard []string
	if p := compare(ref, planted, epochs, &discard); what != "" || p.epochs != c.epochs+1 || p.census != c.census+1 {
		v.selfCheckFailed = true
		if what == "" {
			what = fmt.Sprintf("%d failed epochs and %d wrong census keys, want %d and %d", p.epochs, p.census, c.epochs+1, c.census+1)
		}
		v.notes = append(v.notes, "self-check: planted errors not detected: "+what)
	}
	return v
}

// comparison is what compare found: epochs whose outputs differ from the
// reference, outputs at epochs never injected, and keys whose census count
// is wrong.
type comparison struct {
	epochs, stray, census int
	firstBad              uint64 // first key with a wrong census count
}

func compare(ref reference, sinks []*sink, epochs int64, notes *[]string) comparison {
	var c comparison
	got := make([]epochOut, epochs+1)
	for _, s := range sinks {
		for e, o := range s.epochs {
			if int64(e) > epochs || e == 0 {
				if o.n > 0 {
					c.stray++
					*notes = append(*notes, fmt.Sprintf("%d outputs at epoch %d, which was never injected", o.n, e))
				}
				continue
			}
			got[e].n += o.n
			got[e].fp += o.fp
		}
	}
	for e := int64(1); e <= epochs; e++ {
		if got[e] != ref.epochs[e] {
			c.epochs++
			if len(*notes) < 5 {
				*notes = append(*notes, fmt.Sprintf("epoch %d: %d outputs (want %d), fingerprint %x (want %x)",
					e, got[e].n, ref.epochs[e].n, got[e].fp, ref.epochs[e].fp))
			}
		}
	}
	final := make([]uint32, len(ref.counts))
	for _, s := range sinks {
		for k, n := range s.census {
			final[k] = max(final[k], n)
		}
	}
	// A key's census output is its reference count plus one (the census
	// record itself).
	for k, n := range ref.counts {
		if final[k] != n+1 {
			if c.census == 0 {
				c.firstBad = uint64(k)
			}
			c.census++
		}
	}
	return c
}

// corrupt returns copies of sinks with two planted errors: one more output
// counted at the middle timed epoch by the first sink that saw it, and one
// more on the census count of a key by the sink that reported the key's
// final count. It names what it could not plant.
func corrupt(sinks []*sink, epochs int64, keys int) ([]*sink, string) {
	out := make([]*sink, len(sinks))
	for i, s := range sinks {
		c := *s
		out[i] = &c
	}
	e := epochs/2 + 1
	for _, s := range out {
		if int64(len(s.epochs)) > e && s.epochs[e].n > 0 {
			s.epochs = append([]epochOut(nil), s.epochs...)
			s.epochs[e].n++
			s.epochs[e].fp += fingerprint(0, 1)
			e = -1
			break
		}
	}
	if e > 0 {
		return out, fmt.Sprintf("no sink saw epoch %d", e)
	}
	var holder *sink
	key := uint64(epochs) % uint64(keys)
	for _, s := range out {
		if s.census != nil && (holder == nil || s.census[key] > holder.census[key]) {
			holder = s
		}
	}
	if holder == nil {
		return out, "no census"
	}
	holder.census = append([]uint32(nil), holder.census...)
	holder.census[key]++
	return out, ""
}
