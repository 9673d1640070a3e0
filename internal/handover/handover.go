// Package handover implements the staged state machine of a planned
// driver-VM handover: the production alternative to §8's crash-style
// RestartDriverVM. A restart fails every in-flight request with EREMOTE and
// cold-starts every cache; a handover boots the successor side-by-side
// (prepare), lets in-flight work finish while new posts park at the
// frontends (quiesce), atomically rebinds the channels (switch), and on any
// stage failure rolls back to the still-live predecessor (abort).
//
// The package owns the staging, the frontends' drain, the drain deadline,
// the fault points, the trace/counter emission, and the episode record. What
// the other stages actually do is supplied through Hooks: the Paradice
// machine wires them to successor boot and channel rebinding. The faults
// stress harness reaches the engine only through the machine
// (HandoverDriverVM, RequestHandover).
package handover

import (
	"errors"
	"fmt"

	"paradice/internal/cvd"
	"paradice/internal/faults"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Stage identifies where in the handover state machine an episode is (or
// where it died).
type Stage int

// Handover stages, in order.
const (
	StagePrepare Stage = iota // successor booting and pre-warming
	StageQuiesce              // frontends draining; in-flight work finishing
	StageSwitch               // channels rebinding to the successor
	StageDone                 // committed
)

func (s Stage) String() string {
	switch s {
	case StagePrepare:
		return "prepare"
	case StageQuiesce:
		return "quiesce"
	case StageSwitch:
		return "switch"
	case StageDone:
		return "done"
	}
	return "?"
}

// Sentinel errors distinguishing which stage failed. Returned errors wrap
// these; the cause (injected fault, drain deadline, hook error) rides in the
// message.
var (
	ErrPrepare      = errors.New("handover: prepare failed")
	ErrDrainTimeout = errors.New("handover: drain deadline exceeded")
	ErrSwitch       = errors.New("handover: switch failed")
)

// The quiesce stage's timing. DrainDeadline bounds it: if in-flight
// operations have not finished this long after the drain began, the handover
// aborts back to the predecessor rather than hold new posts parked
// indefinitely. The deadline comfortably covers any request a healthy backend
// will answer (the supervision-era request deadline is shorter); only a
// wedged predecessor — which should be restarted, not handed over — runs into
// it. drainQuantum is how often the stage re-checks for idleness. Parked
// posts carry their own defensive wait bound, cvd.DefaultDrainBound, far
// past the deadline so the engine always decides first.
const (
	DrainDeadline = 2 * sim.Millisecond
	drainQuantum  = 20 * sim.Microsecond
)

// Hooks are the stage implementations the engine drives, all required.
// Abort must not fail; Prepare and Switch may.
type Hooks struct {
	// Prepare boots and pre-warms the successor, predecessor untouched.
	Prepare func() error
	// Switch rebinds the channels to the successor and retires the
	// predecessor. An error here means the predecessor was left intact.
	Switch func() error
	// Abort rolls back whatever the failed run built (discard successor
	// preps). Called once per aborted episode, after the drain ended when
	// the failure happened inside the drain window.
	Abort func()
}

// Episode records one handover attempt for the state-change log and tests.
type Episode struct {
	Start, End sim.Time
	Stage      Stage // StageDone, or the stage that aborted
	Aborted    bool
	Cause      string       // abort cause ("" when committed)
	DrainWait  sim.Duration // drain start until the rings went idle (or gave up)
	Pause      sim.Duration // drain start until its end: the service pause ("downtime")
}

// Run executes one handover episode, draining fes through the quiesce and
// switch stages. It is driven from whatever context the caller has: on a sim
// proc the quiesce stage sleeps between idleness checks; in host context
// (tests driving the machine directly) it performs a single check, since no
// simulated time can pass while it holds control.
//
// The drain ends exactly once on every exit path after it began — commit,
// drain timeout, and switch failure alike — so parked posts are always
// released, toward whichever backend owns the ring by then.
//
// Fault points: "machine.handover.fail" aborts before prepare (the planned-
// maintenance request itself is refused); "handover.drain.timeout" forces the
// quiesce stage to give up immediately; "handover.warm.fail" is consulted by
// the CVD prepare step inside Switch and surfaces here as a Switch error.
func Run(env *sim.Env, fes []*cvd.Frontend, h Hooks) (Episode, error) {
	tr := trace.Get(env)
	tr.Add("machine.handover.attempts", 1)
	ep := Episode{Start: env.Now()}
	// Requests overlapping the handover are episode-flagged in the flight
	// recorder (and captured as outliers), committed and aborted runs alike.
	fl := tr.Flight()
	fl.BeginEpisode()
	defer fl.EndEpisode()

	if d := faults.Point(env, "machine.handover.fail"); d != nil {
		return abort(env, ep, h, fmt.Errorf("%w: %v", ErrPrepare, d.Error()))
	}
	if err := h.Prepare(); err != nil {
		return abort(env, ep, h, fmt.Errorf("%w: %v", ErrPrepare, err))
	}

	ep.Stage = StageQuiesce
	drainStart := env.Now()
	for _, fe := range fes {
		fe.BeginDrain()
	}
	var err error
	if !waitIdle(env, fes) {
		err = ErrDrainTimeout
	}
	ep.DrainWait = env.Now().Sub(drainStart)
	if err == nil {
		ep.Stage = StageSwitch
		if serr := h.Switch(); serr != nil {
			err = fmt.Errorf("%w: %v", ErrSwitch, serr)
		}
	}
	for _, fe := range fes {
		fe.EndDrain()
	}
	ep.Pause = env.Now().Sub(drainStart)
	if err != nil {
		return abort(env, ep, h, err)
	}

	ep.Stage = StageDone
	ep.End = env.Now()
	tr.Add("machine.handover.completed", 1)
	tr.Set("machine.handover.pause_ns", uint64(ep.Pause))
	tr.Group(0, "driver-vm", trace.LayerSupervisor, "handover", ep.Start, ep.End)
	return ep, nil
}

// waitIdle polls the frontends until none has a slot in flight or the
// deadline passes. The "handover.drain.timeout" fault point, consulted once
// on entry, forces an immediate give-up — the injected form of a predecessor
// that never goes idle, without having to wedge a real backend.
func waitIdle(env *sim.Env, fes []*cvd.Frontend) bool {
	if faults.Point(env, "handover.drain.timeout") != nil {
		return false
	}
	idle := func() bool {
		for _, fe := range fes {
			if fe.Occupancy() != 0 {
				return false
			}
		}
		return true
	}
	p := env.CurrentProc()
	limit := env.Now().Add(DrainDeadline)
	for !idle() {
		// In host context no simulated time can pass while we hold control,
		// so the rings are as idle now as they will ever be.
		if p == nil || env.Now() >= limit {
			return false
		}
		p.Sleep(drainQuantum)
	}
	return true
}

// abort finalizes a failed episode: the state-change consumers see the
// counters and the trace instant, the caller's Abort hook unwinds whatever
// the run built, and the episode records where and why.
func abort(env *sim.Env, ep Episode, h Hooks, err error) (Episode, error) {
	ep.Aborted = true
	ep.Cause = err.Error()
	ep.End = env.Now()
	tr := trace.Get(env)
	tr.Add("machine.handover.aborted", 1)
	tr.Instant(0, "driver-vm", trace.LayerSupervisor, "handover-abort:"+ep.Stage.String(), ep.Cause)
	tr.Group(0, "driver-vm", trace.LayerSupervisor, "handover-aborted", ep.Start, ep.End)
	h.Abort()
	return ep, err
}
