package plan

import (
	"megaphone/internal/binenc"
	"megaphone/internal/core"
)

// This file makes the AutoController cluster-wide. Load telemetry travels
// through the telemetry core (telemetry.go), and exactly one process — the
// lowest-index one believed alive by the liveness core (control.go) — acts
// on the merged matrix: it runs the policy and cost model and issues plans
// through its own Controller, whose control moves broadcast to every worker
// in the cluster (bin ownership is a pure function of the move set, so a
// single sender suffices). Load deltas double as heartbeats, and the
// liveness clock counts sampling windows: a process silent for more than
// SuspectAfter windows is suspected dead and the next index takes over — but
// a fresh leader may not decide until the frontier passes its takeover
// epoch, which proves every move the previous leader issued has fully
// applied, so a takeover can never interleave a conflicting plan with a
// dying one.

// ClusterOptions extends AutoOptions to a multi-process cluster.
type ClusterOptions struct {
	// Bus is the control channel (required).
	Bus ControlBus
	// Procs and Proc are the cluster's process count and this process's
	// index; WorkersPerProc is the per-process worker count (uniform), so
	// process p owns meter rows [p*WorkersPerProc, (p+1)*WorkersPerProc).
	Procs, Proc    int
	WorkersPerProc int
	// SuspectAfter is the number of consecutive local sampling windows
	// without a heartbeat from a peer before it is suspected dead (default
	// 4). Election reacts within roughly SuspectAfter×SampleEvery epochs.
	SuspectAfter int
	// OnLeadership observes leadership transitions of this process
	// (instrumentation; called on the ticking goroutine).
	OnLeadership func(leader bool, epoch core.Time)
	// Logf, when non-nil, receives control-plane lifecycle messages.
	Logf func(format string, args ...any)
}

func (o *ClusterOptions) defaults() {
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 4
	}
}

func (o *ClusterOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// appendDecisionFrame encodes a leader decision (issued or declined) for
// followers to mirror. assign is the new in-effect assignment (nil when
// declined: nothing changed).
func appendDecisionFrame(buf []byte, d Decision, assign Assignment) []byte {
	buf = append(buf, ctrlKindDecision)
	buf = binenc.AppendUvarint(buf, uint64(d.Origin))
	buf = binenc.AppendUvarint(buf, uint64(d.Epoch))
	buf = binenc.AppendBool(buf, d.Declined)
	buf = binenc.AppendString(buf, d.Policy)
	buf = binenc.AppendString(buf, d.Reason)
	buf = binenc.AppendUvarint(buf, uint64(d.Moves))
	buf = binenc.AppendUvarint(buf, uint64(d.Steps))
	buf = binenc.AppendUvarint(buf, d.WindowRecs)
	buf = binenc.AppendUvarint(buf, d.Volume)
	buf = binenc.AppendUvarint(buf, d.Gain)
	buf = binenc.AppendUvarint(buf, uint64(len(assign)))
	for _, w := range assign {
		buf = binenc.AppendUvarint(buf, uint64(w))
	}
	return buf
}

// parseDecisionFrame decodes a decision frame (sans the kind byte).
func parseDecisionFrame(data []byte) (Decision, Assignment, error) {
	var d Decision
	var origin, epoch, moves, steps, bins uint64
	var err error
	if origin, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if epoch, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.Declined, data, err = binenc.Bool(data); err != nil {
		return d, nil, err
	}
	if d.Policy, data, err = binenc.String(data); err != nil {
		return d, nil, err
	}
	if d.Reason, data, err = binenc.String(data); err != nil {
		return d, nil, err
	}
	if moves, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if steps, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.WindowRecs, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.Volume, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.Gain, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if bins, data, err = binenc.Count(data, 1); err != nil {
		return d, nil, err
	}
	var assign Assignment
	if bins > 0 {
		assign = make(Assignment, bins)
		for b := range assign {
			var w uint64
			if w, data, err = binenc.Uvarint(data); err != nil {
				return d, nil, err
			}
			assign[b] = int(w)
		}
	}
	d.Origin = int(origin)
	d.Epoch = core.Time(epoch)
	d.Moves = int(moves)
	d.Steps = int(steps)
	return d, assign, nil
}

// elect re-evaluates leadership at a sampling boundary and returns whether
// this process currently leads. A takeover arms the guard: no decision until
// the frontier passes the takeover epoch, proving every move a previous
// leader issued (necessarily at an earlier epoch) has been applied
// cluster-wide.
func (a *AutoController) elect(now core.Time) bool {
	o := a.opts.Cluster
	e := a.live.elect(everyone)
	if e.prev >= 0 && e.leader != e.prev {
		o.logf("megaphone: process %d: cluster controller is now process %d (was %d) at epoch %d",
			o.Proc, e.leader, e.prev, now)
	}
	if e.takeover {
		a.takeoverEpoch, a.takeoverGuard = now, true
		o.logf("megaphone: process %d assumed cluster-controller leadership at epoch %d", o.Proc, now)
	}
	if e.lost {
		o.logf("megaphone: process %d ceded cluster-controller leadership at epoch %d", o.Proc, now)
	}
	if (e.gained || e.lost) && o.OnLeadership != nil {
		o.OnLeadership(e.lead, now)
	}
	return e.lead
}

// mayDecide reports whether the takeover guard (if armed) has cleared:
// frontier strictly past the takeover epoch, or an empty frontier (the
// dataflow drained, nothing can be in flight).
func (a *AutoController) mayDecide(frontier core.Time) bool {
	if a.takeoverGuard && (frontier == core.None || frontier > a.takeoverEpoch) {
		a.takeoverGuard = false
	}
	return !a.takeoverGuard
}

// onControl handles one inbound control frame. Runs on the bus's serialized
// handler context, never on the ticking goroutine.
func (a *AutoController) onControl(from int, payload []byte) {
	o := a.opts.Cluster
	if len(payload) == 0 {
		o.logf("megaphone: process %d: empty control frame from %d", o.Proc, from)
		return
	}
	switch payload[0] {
	case ctrlKindLoad:
		origin, err := a.tel.receive(payload[1:])
		if err != nil {
			o.logf("megaphone: process %d: dropping load delta from %d: %v", o.Proc, from, err)
			return
		}
		if origin >= 0 {
			a.live.heard(origin)
		}
	case ctrlKindDecision:
		d, assign, err := parseDecisionFrame(payload[1:])
		if err != nil {
			o.logf("megaphone: process %d: dropping decision frame from %d: %v", o.Proc, from, err)
			return
		}
		if d.Origin == o.Proc {
			return // our own broadcast echoed back through a relay; impossible today
		}
		a.dmu.Lock()
		if !d.Declined && len(assign) == len(a.current) {
			copy(a.current, assign)
		}
		a.decisions = append(a.decisions, d)
		a.dmu.Unlock()
	default:
		o.logf("megaphone: process %d: unknown control payload kind %d from %d", o.Proc, payload[0], from)
	}
}
