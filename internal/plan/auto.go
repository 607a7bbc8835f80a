package plan

import (
	"sync"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// AutoOptions configures an AutoController.
type AutoOptions struct {
	// Meter is the load source (required). Its bin count fixes the
	// assignment size.
	Meter *core.LoadMeter
	// Policy turns sampled load windows into target assignments (required).
	Policy Policy
	// Strategy and Batch render each decision into a plan (Batch as in
	// Build).
	Strategy Strategy
	Batch    int
	// SampleEvery is the number of ticks between load samples and policy
	// evaluations; with the harness's default 1 ms epochs the default of 250
	// matches the paper's 250 ms reporting interval.
	SampleEvery int
	// Cooldown is the number of idle ticks owed after a plan completes
	// before the next decision may be taken, so consecutive reconfigurations
	// never chain back-to-back (default 2*SampleEvery).
	Cooldown int
	// Cost, when non-nil, gates every policy proposal on projected
	// profitability (see CostModel): unprofitable proposals are declined,
	// and declines are recorded in Decisions like issued plans. Nil means
	// every policy proposal is issued, as before.
	Cost *CostModel
	// Cluster, when non-nil, runs the control loop cluster-wide: load
	// telemetry is exchanged over the bus, and only the elected lowest-index
	// live process decides (see ClusterOptions). Nil means single-process.
	Cluster *ClusterOptions
	// OnDecision observes each decision this process makes, issued or
	// declined (instrumentation; not called for mirrored remote decisions).
	OnDecision func(d Decision)
}

func (o *AutoOptions) defaults() {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 250
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * o.SampleEvery
	}
}

// Decision records one autonomous reconfiguration — issued or, when a cost
// model vetoed the policy's proposal, declined.
type Decision struct {
	// Epoch is the tick at which the decision was taken.
	Epoch core.Time
	// Policy is the deciding policy's name.
	Policy string
	// Moves and Steps size the (proposed or issued) plan.
	Moves, Steps int
	// WindowRecs is the record count of the load window that triggered the
	// decision.
	WindowRecs uint64
	// Declined marks a proposal the cost model judged unprofitable; no plan
	// was issued. Reason is one of the cost model's Reason constants.
	Declined bool
	Reason   string
	// Volume and Gain are the cost model's two sides of the trade: state
	// records behind the moved bins, and service nanos recovered over the
	// credited horizon (both 0 when no cost model is configured).
	Volume, Gain uint64
	// Origin is the index of the process that took the decision (0 in
	// single-process runs; every cluster process records every decision).
	Origin int
}

// AutoController closes the control loop the paper leaves to an external
// controller: it samples a LoadMeter every SampleEvery ticks, asks its
// Policy for a target assignment over the sampled window, and when the
// policy acts, renders the diff into a plan under the configured Strategy
// and feeds it to the embedded Controller — which paces the steps exactly
// as it does for hand-written plans. A cooldown between reconfigurations
// keeps the loop stable while a migration's own disturbance drains.
//
// Tick it once per epoch in place of a plain Controller (it satisfies the
// harness Driver contract).
type AutoController struct {
	*Controller
	opts    AutoOptions
	current Assignment

	ticks    int
	cooldown int // idle ticks still owed before the next decision

	// tel cuts the sampling windows the policy reads: from the meter alone,
	// or from the merged cluster-wide view in cluster mode.
	tel *telemetry

	// lastHot and stability track how long the same worker has been the
	// window's hottest (consecutive sampling windows); the cost model's
	// stability cap consumes it.
	lastHot   int
	stability int

	// Cluster mode only: the liveness core (its clock counts sampling
	// windows, load deltas are the heartbeats) and the takeover guard.
	live          *liveness
	takeoverEpoch core.Time
	takeoverGuard bool
	decBuf        []byte

	// dmu guards decisions and current: both are written on the ticking
	// goroutine (and, in cluster mode, by mirrored remote decisions on bus
	// handler goroutines) and may be read from any other.
	dmu       sync.Mutex
	decisions []Decision
}

// NewAutoController returns an auto controller over the given control
// handles and probe, starting from the initial assignment (len(initial)
// must equal the meter's bin count).
func NewAutoController(handles []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, initial Assignment, opts AutoOptions) *AutoController {
	if opts.Meter == nil {
		panic("plan: AutoController needs a LoadMeter")
	}
	if opts.Policy == nil {
		panic("plan: AutoController needs a Policy")
	}
	if len(initial) != opts.Meter.Bins() {
		panic("plan: initial assignment size does not match the meter's bins")
	}
	opts.defaults()
	a := &AutoController{
		Controller: NewController(handles, probe),
		opts:       opts,
		current:    append(Assignment(nil), initial...),
		lastHot:    -1,
	}
	if opts.Cluster == nil {
		a.tel = newTelemetry(opts.Meter, nil, 0, 0, 0)
		return a
	}
	c := *opts.Cluster
	if c.Bus == nil {
		panic("plan: ClusterOptions needs a Bus")
	}
	if c.Procs < 2 || c.Proc < 0 || c.Proc >= c.Procs {
		panic("plan: ClusterOptions process index out of range")
	}
	if c.WorkersPerProc <= 0 || c.Procs*c.WorkersPerProc != opts.Meter.Workers() {
		panic("plan: ClusterOptions worker layout does not match the meter")
	}
	c.defaults()
	a.opts.Cluster = &c
	a.tel = newTelemetry(opts.Meter, c.Bus, c.Procs, c.Proc, c.WorkersPerProc)
	a.live = newLiveness(c.Procs, c.Proc, c.SuspectAfter, 0)
	// Registering the handler also drains any control frames that beat us
	// here, so no peer's telemetry or decision is ever lost.
	c.Bus.SetControlHandler(a.onControl)
	return a
}

// Tick samples and decides on the sampling grid, then delegates epoch
// advancement (and plan pacing) to the embedded Controller. Call exactly
// once per epoch from the driving goroutine.
func (a *AutoController) Tick(now core.Time) {
	if a.Idle() && a.cooldown > 0 {
		a.cooldown--
	}
	a.ticks++
	if a.ticks%a.opts.SampleEvery == 0 {
		// In cluster mode the sample broadcasts this window's local load
		// delta (also our heartbeat) before cutting the merged window.
		a.tel.sample()
		a.observeStability()
		lead := true
		if a.live != nil {
			// Only the elected leader decides; a fresh leader not until the
			// frontier proves its predecessor's moves have drained, and no
			// leader until every live peer's telemetry has reached the view —
			// a window of mostly-local rows reads as a phantom imbalance.
			a.live.advance()
			lead = a.elect(now) && a.mayDecide(a.probe.Frontier()) &&
				a.tel.covered(a.live, everyone)
		}
		if lead && a.Idle() && a.cooldown == 0 {
			a.decide(now)
		}
	}
	a.Controller.Tick(now)
}

// observeStability extends or resets the run of windows in which the same
// worker has been hottest. Service time is the signal when measured; record
// counts otherwise.
func (a *AutoController) observeStability() {
	loads := a.tel.window.WorkerNanos
	if a.tel.window.TotalNanos() == 0 {
		loads = a.tel.window.WorkerRecs
	}
	hot := 0
	for w, l := range loads {
		if l > loads[hot] {
			hot = w
		}
	}
	if hot == a.lastHot {
		a.stability++
	} else {
		a.lastHot = hot
		a.stability = 1
	}
}

// decide asks the policy for a target over the current window, gates the
// proposal through the cost model (when configured), and issues the
// resulting plan. Both outcomes are recorded; neither repeats before the
// cooldown elapses.
func (a *AutoController) decide(now core.Time) {
	a.dmu.Lock()
	current := append(Assignment(nil), a.current...)
	a.dmu.Unlock()
	target, ok := a.opts.Policy.Target(current, a.tel.window)
	if !ok {
		return
	}
	p := Build(a.opts.Strategy, current, target, a.opts.Batch)
	if len(p.Steps) == 0 {
		return
	}
	d := Decision{
		Epoch:      now,
		Policy:     a.opts.Policy.Name(),
		Moves:      p.NumMoves(),
		Steps:      len(p.Steps),
		WindowRecs: a.tel.window.TotalRecs(),
		Origin:     a.origin(),
	}
	if a.opts.Cost != nil {
		// tel.prev holds the newest cumulative snapshot; its per-bin record
		// counts proxy the state volume to move.
		v := a.opts.Cost.Evaluate(current, target, a.tel.window, a.tel.prev, a.stability)
		d.Volume, d.Gain = v.VolumeRecs, v.GainNanos
		if !v.Migrate {
			d.Declined, d.Reason = true, v.Reason
			a.cooldown = a.opts.Cooldown
			a.record(d, nil)
			return
		}
	}
	a.Controller.Start(p)
	a.dmu.Lock()
	a.current = target
	a.dmu.Unlock()
	a.cooldown = a.opts.Cooldown
	a.record(d, target)
}

// origin returns this process's decision origin index.
func (a *AutoController) origin() int {
	if a.opts.Cluster != nil {
		return a.opts.Cluster.Proc
	}
	return 0
}

// record appends a decision locally and, in cluster mode, broadcasts it so
// followers mirror it (and the new assignment, when one was issued) into
// their own records — every process's Result.Decisions converges.
func (a *AutoController) record(d Decision, assign Assignment) {
	a.dmu.Lock()
	a.decisions = append(a.decisions, d)
	a.dmu.Unlock()
	if a.opts.Cluster != nil {
		a.decBuf = appendDecisionFrame(a.decBuf[:0], d, assign)
		a.opts.Cluster.Bus.BroadcastControl(a.decBuf)
	}
	if a.opts.OnDecision != nil {
		a.opts.OnDecision(d)
	}
}

// Decisions returns the reconfigurations issued so far.
func (a *AutoController) Decisions() []Decision {
	a.dmu.Lock()
	defer a.dmu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// Current returns the assignment the controller believes is in effect (or
// being installed, while a plan executes).
func (a *AutoController) Current() Assignment {
	a.dmu.Lock()
	defer a.dmu.Unlock()
	return append(Assignment(nil), a.current...)
}
