package plan

import (
	"sync/atomic"
	"time"
)

// This file holds what every control plane of a process shares: the bus
// contract, the one table of control frame kinds, and the one failure
// detector and leader election. A process runs exactly one control plane,
// and that plane alone registers the bus handler: the AutoController in a
// fixed-roster cluster, the MembershipController in a membership run (which
// also carries load telemetry for its autoscale evaluator). See DESIGN.md,
// "Control plane".

// ControlBus is the cluster control channel: broadcast to every peer,
// receive from all of them serialized. *dataflow.Mesh implements it; tests
// substitute in-memory buses.
type ControlBus interface {
	BroadcastControl(payload []byte)
	SetControlHandler(h func(from int, payload []byte))
}

// Control frame kinds: the first byte of every frame on the bus.
const (
	ctrlKindLoad     byte = iota + 1 // core.LoadDelta load telemetry
	ctrlKindDecision                 // autoscaler decision, mirrored by followers
	memKindBeat                      // membership heartbeat
	memKindHello                     // joiner asks for admission
	memKindLeaveReq                  // member asks to drain out
	memKindDecision                  // membership leader's transition decision
	memKindReady                     // barrier: quiescence report (frontier + counters)
	memKindInv                       // barrier: capability-hold inventory + applied bounds
	memKindDone                      // barrier: tracker reset complete
	memKindGoodbye                   // leaver's final control frame before its FIN
	memKindMigration                 // leader's rendered scripted-migration schedule
)

// liveness is the one failure detector and leader election of a control
// plane. Each process counts its own clock windows; a peer heard from at
// window n and silent since is suspected once the local clock passes
// n+suspectAfter. The leader is the lowest eligible process not suspected
// (a process never suspects itself). The owning plane chooses the clock's
// cadence (sampling windows for the autoscaler, ticks for membership), what
// counts as hearing from a peer, which slots are eligible, and the guard a
// fresh leader must clear before it decides.
type liveness struct {
	proc         int
	suspectAfter int64
	// every is the wall-clock floor between clock advances in nanoseconds
	// (0: advance on every call); lastAdvance is the time of the last one.
	every, lastAdvance int64

	// clock is written by the ticking goroutine and read by bus handlers;
	// lastHeard[q] is the clock value when q was last heard from.
	clock     atomic.Int64
	lastHeard []atomic.Int64

	// Election state, owned by the ticking goroutine.
	leader  int // index elected last time (-1 before the first election)
	leading bool
	everLed bool
}

func newLiveness(procs, proc, suspectAfter int, every time.Duration) *liveness {
	return &liveness{
		proc:         proc,
		suspectAfter: int64(suspectAfter),
		every:        int64(every),
		lastHeard:    make([]atomic.Int64, procs),
		leader:       -1,
	}
}

// advance moves the local clock one window forward, at most once per
// `every` of wall time: without the floor a drive loop catching up after a
// stall bursts through windows in microseconds and suspects every peer
// before their frames can cross the network. Ticking goroutine only.
func (l *liveness) advance() {
	if l.every > 0 {
		now := time.Now().UnixNano()
		if now-l.lastAdvance < l.every {
			return
		}
		l.lastAdvance = now
	}
	l.lastHeard[l.proc].Store(l.clock.Add(1))
}

// heard records a sign of life from process q at the current local clock.
func (l *liveness) heard(q int) { l.lastHeard[q].Store(l.clock.Load()) }

// silence returns the number of local windows since q was last heard from.
func (l *liveness) silence(q int) int64 { return l.clock.Load() - l.lastHeard[q].Load() }

// suspected reports whether q has been silent for more than suspectAfter
// windows (never true of the local process).
func (l *liveness) suspected(q int) bool {
	return q != l.proc && l.silence(q) > l.suspectAfter
}

// election is the outcome of one leadership evaluation.
type election struct {
	leader, prev int  // elected index now and at the previous election (-1: none)
	lead         bool // this process leads
	gained, lost bool // this process's role changed since the previous election
	// takeover marks leadership gained other than by process 0 at startup:
	// a predecessor's decision may still be in flight, so the plane must arm
	// its takeover guard.
	takeover bool
}

// elect re-evaluates leadership: the lowest eligible process not suspected,
// or -1 when none qualifies (possible only while this process is itself
// ineligible, since it never suspects itself). Ticking goroutine only.
func (l *liveness) elect(eligible func(q int) bool) election {
	idx := -1
	for q := range l.lastHeard {
		if eligible(q) && !l.suspected(q) {
			idx = q
			break
		}
	}
	e := election{leader: idx, prev: l.leader, lead: idx == l.proc}
	e.gained = e.lead && !l.leading
	e.lost = !e.lead && l.leading
	e.takeover = e.gained && (l.proc != 0 || l.everLed)
	if e.lead {
		l.everLed = true
	}
	l.leader, l.leading = idx, e.lead
	return e
}

// everyone is the fixed-roster eligibility rule: every slot may lead.
func everyone(int) bool { return true }
