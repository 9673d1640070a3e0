package cvd

import (
	"paradice/internal/hv"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Mode selects the CVD transport: inter-VM interrupts (default), the
// polling mode for high-performance applications (§5.1), in which both
// sides poll the shared page for 200 µs before going to sleep to wait for
// interrupts, or the adaptive mode, which switches NAPI-style between the
// two per channel based on the observed arrival rate — poll under load,
// re-arm interrupts when idle.
type Mode int

// Transport modes.
const (
	Interrupts Mode = iota
	Polling
	Adaptive
)

func (m Mode) String() string {
	switch m {
	case Polling:
		return "polling"
	case Adaptive:
		return "adaptive"
	}
	return "interrupts"
}

// policy is the transport policy of one end of a channel. The frontend and
// the backend each embed one, built from the same settings: §5.1 gives both
// ends one rule ("the frontend and backend both poll the shared page for
// 200 µs before they go to sleep"), and this type is the only place that
// rule, the adaptive stance and the size+deadline batching are decided.
// Each end keeps its own state — the frontend's stance follows its posts,
// the backend's its pickups — and only what the decisions feed differs.
type policy struct {
	mode     Mode
	window   sim.Duration // poll window before sleeping (§5.1: 200 µs)
	coalesce sim.Duration // batching deadline; 0 disables batching

	// Adaptive stance (Mode == Adaptive): an integer EWMA of the gaps
	// between arrivals on the virtual clock. Below perf.AdaptivePollGap the
	// end takes poll stance and behaves as static Polling; above it, it
	// re-arms interrupts.
	stance bool
	avg    sim.Duration
	last   sim.Time

	// Size+deadline batching: batched members are pending since the last
	// flush, and gen invalidates an armed deadline timer once a flush has
	// already run.
	batched int
	gen     uint64

	// SpinTime accumulates the virtual time this end spent busy-polling
	// the shared page: the CPU cost of poll stance that the latency numbers
	// alone cannot show. The adaptive bench gates on it at low load, where
	// static polling pays a full idle window per wake and adaptive must not.
	SpinTime sim.Duration
}

// polling reports whether this end should spin on the shared page instead
// of sleeping on an interrupt: always in static Polling, and in Adaptive
// while the end is in poll stance. A zero window never spins.
func (p *policy) polling() bool {
	return p.window > 0 && (p.mode == Polling || p.mode == Adaptive && p.stance)
}

// adaptiveGapCap clamps the gap fed to the adaptive EWMA: one long idle
// period must swing the stance to interrupts immediately-ish, but not so far
// that the first burst after it spends dozens of requests paying IRQ costs
// before the average recovers. 8x the threshold re-converges to poll stance
// within ~8 back-to-back arrivals.
const adaptiveGapCap = 8 * perf.AdaptivePollGap

// arrive feeds one arrival at now into the adaptive EWMA and reports whether
// the stance flipped. Fast arrivals (roughly, requests arriving more often
// than an IRQ round trip costs) enter poll stance; sparse arrivals re-arm
// interrupts, NAPI-style. Pure bookkeeping: it never advances time, so
// Adaptive at steady state prices exactly like the static mode it is
// imitating. A no-op in the static modes.
func (p *policy) arrive(now sim.Time) (flipped bool) {
	if p.mode != Adaptive {
		return false
	}
	gap := min(now.Sub(p.last), adaptiveGapCap)
	p.last = now
	if p.avg == 0 {
		p.avg = adaptiveGapCap // first arrival: start in interrupt stance
	} else {
		p.avg += (gap - p.avg) / 4
	}
	poll := p.avg < perf.AdaptivePollGap
	flipped = poll != p.stance
	p.stance = poll
	return flipped
}

// stanceName names the current stance for the trace instant of a flip.
func (p *policy) stanceName() string {
	if p.stance {
		return "mode-to-poll"
	}
	return "mode-to-interrupts"
}

// batch adds one member to the pending batch. The CoalesceBatch-th member
// flushes at once; the first arms the deadline timer, which fires flush
// after the coalesce window unless a flush (take) has run in between.
func (p *policy) batch(env *sim.Env, flush func()) {
	p.batched++
	if p.batched >= CoalesceBatch {
		flush()
		return
	}
	if p.batched == 1 {
		gen := p.gen
		env.After(p.coalesce, func() {
			if p.gen == gen {
				flush()
			}
		})
	}
}

// take ends the pending batch for a flush: it returns the member count and
// disarms the deadline timer.
func (p *policy) take() int {
	p.gen++
	n := p.batched
	p.batched = 0
	return n
}

// spin busy-polls the shared page for up to d, waiting for ev, and charges
// the time spent to SpinTime. It reports whether ev fired.
func (p *policy) spin(proc *sim.Proc, ev *sim.Event, d sim.Duration) bool {
	start := proc.Now()
	woken := proc.WaitTimeout(ev, d)
	p.SpinTime += proc.Now().Sub(start)
	return woken
}

// cross makes the peer notice new ring state. A spinning peer observes the
// shared page CostPollCross later, which runs observe in its place; a
// sleeping peer takes inter-VM interrupt vec. rid labels the crossing's
// trace span (0 for heartbeats and untraced runs). Reports whether the peer
// was spinning.
func cross(h *hv.Hypervisor, rid uint64, spinning bool, peer *hv.VM, vec int, observe func()) bool {
	if !spinning {
		h.SendInterrupt(peer, vec)
		return false
	}
	if tr := trace.Get(h.Env); tr != nil {
		now := tr.Now()
		tr.Span(rid, peer.Name, trace.LayerIRQ, "poll-cross", now, now.Add(perf.CostPollCross))
	}
	h.Env.After(perf.CostPollCross, observe)
	return true
}
