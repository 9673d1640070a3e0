// Package supervise closes the recovery loop §8 of the paper leaves open.
// The paper proposes surviving a guest-broken device by "detect[ing] the
// broken device and restart[ing] it by simply restarting the driver VM";
// the repository has had the restart (Machine.RestartDriverVM) since the
// seed, but nothing *detected* failure — a guest whose backend silently
// died could block forever, and recovery required an operator.
//
// A Supervisor is that detector and operator: a watchdog process that pings
// every CVD channel with virtual-clock heartbeats (a cheap ring no-op that
// consumes no request slot), declares the driver VM dead on K consecutive
// missed deadlines, on a backend death notification (an explicit fault-plan
// kill), or on a sim.ProcPanic from a backend process (a driver oops), and
// then drives the restart itself under a bounded exponential-backoff
// budget. Every restart costs perf.CostDriverVMRestart of virtual time, so
// MTTR — detection latency plus backoff plus reboot — is a measurable
// virtual-clock quantity (see the "Recovery" section of EXPERIMENTS.md).
//
// When the budget is exhausted (a crash-looping driver VM, e.g. a fault
// plan that re-kills every new backend), the supervisor gives up and enters
// degraded mode: channels that are dead fail every operation fast with
// ENODEV, channels that are healthy keep their working backends, and the
// state-change log records the whole episode for tests and experiments.
//
// The watchdog keeps the event calendar non-empty for as long as it runs:
// drive supervised simulations with RunUntil, or Stop the supervisor before
// draining the calendar with Run. A degraded supervisor stops on its own.
package supervise

import (
	"fmt"
	"strings"

	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Channel is one supervised CVD connection (one guest VM × one device
// file). The paradice Machine adapts its frontend/backend pairs to this
// (supervision.go); this package's tests supervise fakes. Identity must be
// stable across driver-VM restarts (the frontend side survives; the backend
// side is rebuilt), which is why the supervisor keys its bookkeeping on
// ID() rather than on the value.
type Channel interface {
	// ID names the channel, e.g. "guest0:/dev/dri/card0".
	ID() string
	// Heartbeat posts one liveness probe and waits up to timeout for the
	// backend's echo, on the supervisor's sim proc.
	Heartbeat(p *sim.Proc, timeout sim.Duration) bool
	// Alive reports whether the channel's current backend dispatcher is
	// still serving (false after an injected kill or orderly stop).
	Alive() bool
	// OnDeath registers an immediate-notification callback on the current
	// backend; re-registered by the supervisor after every restart.
	OnDeath(fn func())
	// SetDegraded enters/leaves fail-fast ENODEV mode on the frontend.
	SetDegraded(on bool)
}

// Target is the machine under supervision.
type Target interface {
	// Channels returns the current supervised channels. Called fresh every
	// sweep, so channels added after Start (new guests, new device files)
	// are picked up automatically.
	Channels() []Channel
	// Restart performs the §8 recovery — restart the driver VM and
	// reconnect every channel. It is invoked from the watchdog's sim proc,
	// so time it charges (perf.CostDriverVMRestart) advances the clock.
	Restart() error
}

// State is the supervisor's view of the driver VM.
type State int

// Supervisor states.
const (
	// StateHealthy: every supervised channel answers heartbeats.
	StateHealthy State = iota
	// StateRestarting: failure detected; restart attempts in progress.
	StateRestarting
	// StateDegraded: restart budget exhausted. Dead channels fail fast
	// with ENODEV; the supervisor has stopped.
	StateDegraded
)

func (s State) String() string {
	switch s {
	case StateRestarting:
		return "restarting"
	case StateDegraded:
		return "degraded"
	default:
		return "healthy"
	}
}

// Change is one entry of the queryable state-change log.
type Change struct {
	At      sim.Time
	State   State
	Reason  string
	Attempt int // consecutive restart attempts so far (budget position)
}

// Config tunes the supervisor. Zero values select the defaults.
type Config struct {
	// HeartbeatEvery is the watchdog period (default 2 ms).
	HeartbeatEvery sim.Duration
	// HeartbeatTimeout is how long one heartbeat may take before it counts
	// as missed (default 200 µs — a healthy ack needs ~2 inter-VM
	// interrupts ≈ 32 µs, so the default leaves a generous 6× margin for a
	// slow-but-healthy driver VM).
	HeartbeatTimeout sim.Duration
	// Misses is how many consecutive missed heartbeats on one channel
	// declare the driver VM dead (default 3).
	Misses int
	// BackoffBase is the delay before the first restart attempt; each
	// consecutive attempt doubles it (default 2 ms).
	BackoffBase sim.Duration
	// BackoffCap bounds the exponential backoff (default 64 ms).
	BackoffCap sim.Duration
	// MaxRestarts is the consecutive-restart budget; exhausting it enters
	// degraded mode (default 5).
	MaxRestarts int
	// StableAfter is how long the machine must stay healthy after a
	// restart before the consecutive-attempt counter resets (default
	// 250 ms). A driver VM that dies again within the window is treated as
	// crash-looping and keeps climbing the backoff schedule.
	StableAfter sim.Duration
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 2 * sim.Millisecond
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 200 * sim.Microsecond
	}
	if c.Misses == 0 {
		c.Misses = 3
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 2 * sim.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 64 * sim.Millisecond
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 5
	}
	if c.StableAfter == 0 {
		c.StableAfter = 250 * sim.Millisecond
	}
	return c
}

// Supervisor is the driver-VM health monitor and self-healing controller.
// It is single-threaded simulation state: everything happens either on the
// watchdog proc or in scheduler-context callbacks, never concurrently.
type Supervisor struct {
	env    *sim.Env
	cfg    Config
	target Target

	kick          *sim.Event // early wake-up: death notification or Stop
	state         State
	misses        map[string]int
	restarts      int // consecutive attempts (the budget position)
	lastRestartAt sim.Time
	pendingReason string
	pendingMaint  *maintenance
	changes       []Change
	stopped       bool

	// Recovery-episode tracking for the trace: the open episode begins at the
	// first StateRestarting transition and closes at the StateHealthy (or
	// StateDegraded) transition that ends it, emitted as one group span so
	// paradice-trace shows the whole outage inline with the requests it
	// failed.
	episodeOpen  bool
	episodeStart sim.Time
}

// Start creates the supervisor and spawns its watchdog proc on env.
func Start(env *sim.Env, target Target, cfg Config) *Supervisor {
	s := &Supervisor{
		env:    env,
		cfg:    cfg.withDefaults(),
		target: target,
		kick:   env.NewEvent(),
		misses: make(map[string]int),
	}
	s.rearmDeath()
	env.Spawn("supervisor-watchdog", s.run)
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Supervisor) Config() Config { return s.cfg }

// State returns the supervisor's current state.
func (s *Supervisor) State() State { return s.state }

// Changes returns the state-change log.
func (s *Supervisor) Changes() []Change { return s.changes }

// Stop terminates the watchdog (tests drain the calendar afterwards).
// Degraded-mode flags on frontends are left as they are.
func (s *Supervisor) Stop() {
	s.stopped = true
	s.kick.Trigger()
}

// Stopped reports whether the watchdog has exited or been told to.
func (s *Supervisor) Stopped() bool { return s.stopped }

// HandleProcPanic consumes a panic on a CVD backend process — the
// dispatcher or one of its handler threads — as a driver VM oops: the
// experiment survives, and the supervisor treats it as a death detection.
// Panics anywhere else are not ours to absorb. The caller routes a panic to
// the supervisor of the driver VM the proc ran on (a machine with several
// driver-VM shards runs one supervisor per shard).
func (s *Supervisor) HandleProcPanic(pp *sim.ProcPanic) bool {
	if s.stopped || s.state == StateDegraded {
		return false
	}
	if !strings.HasPrefix(pp.Proc, "cvd-dispatch-") && !strings.HasPrefix(pp.Proc, "cvd-op-") {
		return false
	}
	s.noteFailure(fmt.Sprintf("backend proc %s panicked: %v", pp.Proc, pp.Value))
	return true
}

// maintenance is one queued planned-maintenance request.
type maintenance struct {
	reason string
	fn     func(p *sim.Proc) error
}

// RequestMaintenance queues a planned-maintenance action — a driver-VM
// handover, typically — to run on the watchdog proc before its next sweep.
// Running there, rather than on the caller's context, means the action's
// virtual-time cost (successor boot, drain wait) is serialized with the
// heartbeat sweeps: the watchdog cannot declare the driver VM dead for
// missing beats the maintenance itself is sitting on. The outcome lands in
// the state-change log as an entry in the CURRENT state ("maintenance: ..."
// on success, "maintenance failed: ..." on error) so the restart/MTTR
// statistics are untouched by planned work. Returns false if the supervisor
// has stopped or a maintenance request is already queued.
func (s *Supervisor) RequestMaintenance(reason string, fn func(p *sim.Proc) error) bool {
	if s.stopped || s.state == StateDegraded || s.pendingMaint != nil {
		return false
	}
	s.pendingMaint = &maintenance{reason: reason, fn: fn}
	s.kick.Trigger()
	return true
}

// noteFailure records an asynchronous failure signal and wakes the watchdog
// immediately instead of waiting out the rest of the heartbeat period.
func (s *Supervisor) noteFailure(reason string) {
	if s.stopped || s.state == StateDegraded {
		return
	}
	if s.pendingReason == "" {
		s.pendingReason = reason
	}
	s.kick.Trigger()
}

// rearmDeath (re-)registers the immediate death notification on every
// channel's current backend — necessary after each restart, which replaces
// the backend objects.
func (s *Supervisor) rearmDeath() {
	for _, ch := range s.target.Channels() {
		ch := ch
		ch.OnDeath(func() { s.noteFailure("backend killed: " + ch.ID()) })
	}
}

func (s *Supervisor) setState(st State, reason string) {
	s.state = st
	s.changes = append(s.changes, Change{At: s.env.Now(), State: st, Reason: reason, Attempt: s.restarts})
	tr := trace.Get(s.env)
	if tr == nil {
		return
	}
	tr.Instant(0, "driver-vm", trace.LayerSupervisor, "state:"+st.String(), reason)
	tr.Add("supervise.transitions", 1)
	// The flight recorder mirrors the episode: requests in flight during a
	// recovery are flagged (and captured as outliers) between the Begin and
	// End marks. A disarmed (nil) recorder no-ops.
	fl := tr.Flight()
	switch st {
	case StateRestarting:
		if !s.episodeOpen {
			s.episodeOpen, s.episodeStart = true, s.env.Now()
			fl.BeginEpisode()
		}
	case StateHealthy:
		if s.episodeOpen {
			s.episodeOpen = false
			fl.EndEpisode()
			tr.Group(0, "driver-vm", trace.LayerSupervisor, "recovery", s.episodeStart, s.env.Now())
			tr.Add("supervise.recoveries", 1)
			tr.Set("supervise.mttr_ns", uint64(s.MTTR()))
		}
	case StateDegraded:
		if s.episodeOpen {
			s.episodeOpen = false
			fl.EndEpisode()
			tr.Group(0, "driver-vm", trace.LayerSupervisor, "outage-degraded", s.episodeStart, s.env.Now())
		}
		tr.Add("supervise.degraded", 1)
	}
}

// run is the watchdog proc: sleep one heartbeat period (or less, if a death
// notification kicks), sweep every channel, heal on failure, stop when
// degraded.
func (s *Supervisor) run(p *sim.Proc) {
	for {
		if s.stopped {
			return
		}
		s.kick.Reset()
		if s.pendingReason == "" && s.pendingMaint == nil {
			p.WaitTimeout(s.kick, s.cfg.HeartbeatEvery)
		}
		if s.stopped {
			return
		}
		if mnt := s.pendingMaint; mnt != nil {
			s.pendingMaint = nil
			if err := mnt.fn(p); err != nil {
				s.setState(s.state, "maintenance failed: "+mnt.reason+": "+err.Error())
			} else {
				s.setState(s.state, "maintenance: "+mnt.reason)
			}
			// Fall through to a normal sweep: whatever the maintenance left
			// behind — a successor's channels, or the rolled-back predecessor
			// — must answer heartbeats right now.
		}
		reason := s.pendingReason
		s.pendingReason = ""
		if reason == "" {
			reason = s.sweep(p)
		}
		if reason == "" {
			// Healthy sweep: a machine that has stayed up past the
			// stability window earns its backoff budget back.
			if s.restarts > 0 && p.Now() >= s.lastRestartAt.Add(s.cfg.StableAfter) {
				s.restarts = 0
			}
			continue
		}
		s.heal(p, reason)
		if s.state == StateDegraded {
			s.stopped = true
			return
		}
	}
}

// sweep heartbeats every non-degraded channel once. Returns a failure
// reason when some channel crossed the miss threshold (or is outright
// dead), "" when all is well.
func (s *Supervisor) sweep(p *sim.Proc) string {
	// Channels() is resolved fresh each sweep, so channels paravirtualized
	// after Start (or backends replaced since) get their death notification
	// here; re-registering an already-armed backend just overwrites the
	// same hook.
	s.rearmDeath()
	for _, ch := range s.target.Channels() {
		id := ch.ID()
		if !ch.Alive() {
			return "backend dead: " + id
		}
		trace.Get(s.env).Add("supervise.heartbeats.sent", 1)
		if ch.Heartbeat(p, s.cfg.HeartbeatTimeout) {
			s.misses[id] = 0
			continue
		}
		trace.Get(s.env).Add("supervise.heartbeats.missed", 1)
		s.misses[id]++
		if s.misses[id] >= s.cfg.Misses {
			return fmt.Sprintf("%s missed %d consecutive heartbeats", id, s.misses[id])
		}
	}
	return ""
}

// heal drives restart attempts under the exponential-backoff budget until
// the machine answers heartbeats again or the budget is exhausted.
func (s *Supervisor) heal(p *sim.Proc, reason string) {
	for {
		if s.restarts >= s.cfg.MaxRestarts {
			s.degrade(p, reason)
			return
		}
		backoff := s.backoff(s.restarts)
		s.setState(StateRestarting, reason)
		s.restarts++
		trace.Get(s.env).Add("supervise.restarts", 1)
		p.Sleep(backoff)
		if s.stopped {
			return
		}
		if err := s.target.Restart(); err != nil {
			reason = "restart failed: " + err.Error()
			continue
		}
		s.lastRestartAt = p.Now()
		s.pendingReason = "" // kills of pre-restart backends are moot now
		s.rearmDeath()
		for id := range s.misses {
			s.misses[id] = 0
		}
		// Verify the new driver VM actually answers before declaring
		// recovery; a fault plan that re-kills every new backend fails
		// here and climbs the backoff schedule toward degraded mode.
		if r := s.sweep(p); r != "" {
			reason = r
			continue
		}
		s.setState(StateHealthy, fmt.Sprintf("recovered after %d attempt(s)", s.restarts))
		return
	}
}

// backoff returns the delay before attempt number `attempt` (0-based):
// BackoffBase << attempt, capped at BackoffCap.
func (s *Supervisor) backoff(attempt int) sim.Duration {
	d := s.cfg.BackoffBase
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= s.cfg.BackoffCap {
			return s.cfg.BackoffCap
		}
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	return d
}

// degrade is the terminal transition: channels that are dead or
// unresponsive fail fast with ENODEV from now on; healthy channels keep
// their working backends untouched.
func (s *Supervisor) degrade(p *sim.Proc, reason string) {
	for _, ch := range s.target.Channels() {
		if !ch.Alive() || !ch.Heartbeat(p, s.cfg.HeartbeatTimeout) {
			ch.SetDegraded(true)
		}
	}
	s.setState(StateDegraded, reason)
}

// MTTR computes the mean time to repair over the state-change log: for each
// recovery episode, the time from the first StateRestarting entry to the
// StateHealthy entry that closed it. Returns 0 when no episode completed.
func (s *Supervisor) MTTR() sim.Duration {
	var total sim.Duration
	n := 0
	var openAt sim.Time
	open := false
	for _, c := range s.changes {
		switch c.State {
		case StateRestarting:
			if !open {
				openAt, open = c.At, true
			}
		case StateHealthy:
			if open {
				total += c.At.Sub(openAt)
				n++
				open = false
			}
		}
	}
	if n == 0 {
		return 0
	}
	return total / sim.Duration(n)
}
