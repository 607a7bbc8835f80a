package keycount

import (
	"net"
	"sync"
	"testing"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
)

// TestMembershipRunReportsLatency pins the latency probe of membership runs
// on two of its exit paths: the survivors drain at the end of the run and
// must have measured every epoch they drove, while process 2 drain-leaves
// mid-run and must have measured some epochs but none past its departure
// (its inputs close one epoch past the last it drove, so that one may
// complete too).
// The run returning at all pins that the prober stops on both paths.
func TestMembershipRunReportsLatency(t *testing.T) {
	const procs, epochs, leaveAt = 3, 600, 200
	hosts := make([]string, procs)
	lns := make([]net.Listener, procs)
	for p := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p], hosts[p] = ln, ln.Addr().String()
	}
	ckptDir := t.TempDir()
	results := make([]harness.Result, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := RunConfig{
				Params:          Params{Variant: HashCount, LogBins: 4, Domain: 1 << 10},
				Workers:         1,
				Rate:            20000,
				Duration:        epochs * time.Millisecond,
				EpochEvery:      time.Millisecond,
				Cluster:         &dataflow.ClusterSpec{Hosts: hosts, Process: p, Listener: lns[p], DialTimeout: 15 * time.Second},
				Membership:      true,
				CheckpointDir:   ckptDir,
				CheckpointEvery: 100 * time.Millisecond,
				MembershipSlack: 6,
			}
			if p == 2 {
				cfg.LeaveAt = leaveAt
			}
			results[p], errs[p] = Run(cfg)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	for p, res := range results {
		n := res.Hist.Count()
		t.Logf("process %d: epochs=%d latency %s", p, res.Epochs, res.Hist.Summary())
		if n == 0 || res.Hist.Quantile(0.99) <= 0 {
			t.Fatalf("process %d measured no epoch latency (%d samples)", p, n)
		}
		if len(res.Timeline.Samples()) == 0 {
			t.Fatalf("process %d: empty latency timeline", p)
		}
		switch {
		case p == 2 && (res.Epochs >= epochs || n > res.Epochs+1):
			t.Fatalf("leaver drove %d epochs and measured %d; want a departure before %d and no epoch measured past it",
				res.Epochs, n, epochs)
		case p != 2 && n != epochs:
			t.Fatalf("process %d measured %d epochs, want all %d", p, n, epochs)
		}
	}
}
