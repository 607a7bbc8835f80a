package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out at
// exit. Spans are recorded around calls into the program's public API from
// the benchmark's own code; the program itself carries no instrumentation.
// A nil *tracer records nothing, which is how untraced runs disable it.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// span is one timed interval. Parent is the index of the enclosing span in
// the same pass, or -1; Pass names the workload pass that recorded it.
type span struct {
	Name    string `json:"name"`
	Pass    string `json:"pass"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id (-1 when tracing is off).
func (t *tracer) add(pass, name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Pass: pass, Parent: parent,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds()})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; closeAt sets it. A span
// never closed is dropped from the summary.
func (t *tracer) open(pass, name string, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Pass: pass, Parent: parent,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: -1})
	return len(t.spans) - 1
}

func (t *tracer) closeAt(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// spanStat aggregates the spans of one (pass, name).
type spanStat struct {
	Pass    string  `json:"pass"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes every span's self time — its duration minus the part
// of it its children cover — and sums both per (pass, name).
func (t *tracer) selfTimes() []spanStat {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNs >= s.StartNs {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	agg := make(map[[2]string]*spanStat)
	for i, s := range t.spans {
		if s.EndNs < s.StartNs {
			continue
		}
		dur := s.EndNs - s.StartNs
		self := dur - covered(children[i], s.StartNs, s.EndNs)
		k := [2]string{s.Pass, s.Name}
		st := agg[k]
		if st == nil {
			st = &spanStat{Pass: s.Pass, Name: s.Name}
			agg[k] = st
		}
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(self) / 1e6
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pass != out[j].Pass {
			return out[i].Pass < out[j].Pass
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// findStat returns the aggregate of one (pass, name), zero when absent.
func findStat(stats []spanStat, pass, name string) spanStat {
	for _, s := range stats {
		if s.Pass == pass && s.Name == name {
			return s
		}
	}
	return spanStat{Pass: pass, Name: name}
}

// write stores the spans and their self-time summary as one JSON document.
func (t *tracer) write(path string, stats []spanStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := encodeTrace(f, t.spans, stats)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace %s: %w", path, werr)
	}
	return nil
}

func encodeTrace(w io.Writer, spans []span, stats []spanStat) error {
	return json.NewEncoder(w).Encode(struct {
		Summary []spanStat `json:"summary"`
		Spans   []span     `json:"spans"`
	}{stats, spans})
}
