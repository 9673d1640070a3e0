package supervise

// Unit tests against a fake Target: the supervisor's detection, backoff,
// budget, and budget-reset logic are exercised here in isolation; the
// integration with a real Paradice machine (real CVD heartbeats, real
// restarts) lives in the root package's supervision_test.go.

import (
	"fmt"
	"testing"

	"paradice/internal/sim"
	"paradice/internal/trace"
)

// fakeChannel mimics a CVD connection. Heartbeat consumes virtual time the
// way the real one does: a responsive channel answers after ackDelay, an
// unresponsive one eats the whole timeout.
type fakeChannel struct {
	id         string
	alive      bool
	responsive bool
	ackDelay   sim.Duration
	degraded   bool
	deathFn    func()
}

func (c *fakeChannel) ID() string { return c.id }

func (c *fakeChannel) Heartbeat(p *sim.Proc, timeout sim.Duration) bool {
	if !c.alive {
		return false
	}
	if !c.responsive || c.ackDelay > timeout {
		p.Sleep(timeout)
		return false
	}
	p.Sleep(c.ackDelay)
	return true
}

func (c *fakeChannel) Alive() bool { return c.alive }

func (c *fakeChannel) OnDeath(fn func()) {
	if !c.alive {
		fn()
		return
	}
	c.deathFn = fn
}

func (c *fakeChannel) SetDegraded(on bool) { c.degraded = on }

// kill is the injected-death path: the channel goes dead and the registered
// notification fires, as Backend.Kill does.
func (c *fakeChannel) kill() {
	c.alive = false
	if fn := c.deathFn; fn != nil {
		c.deathFn = nil
		fn()
	}
}

// fakeTarget restarts by resurrecting every channel — unless restartErr is
// set, in which case the attempt fails and the machine stays as it is.
type fakeTarget struct {
	chans      []*fakeChannel
	restarts   int
	restartErr error
	onRestart  func() // extra behavior per restart (e.g. re-kill)
}

func (t *fakeTarget) Channels() []Channel {
	out := make([]Channel, len(t.chans))
	for i, c := range t.chans {
		out[i] = c
	}
	return out
}

func (t *fakeTarget) Restart() error {
	t.restarts++
	if t.restartErr != nil {
		return t.restartErr
	}
	for _, c := range t.chans {
		c.alive, c.responsive = true, true
	}
	if t.onRestart != nil {
		t.onRestart()
	}
	return nil
}

// newFakeRig builds a target of n healthy channels on an Env whose metrics
// registry counts the supervisor's events.
func newFakeRig(n int) (*sim.Env, *fakeTarget) {
	env := sim.NewEnv()
	trace.Install(env, trace.New())
	tgt := &fakeTarget{}
	for i := 0; i < n; i++ {
		tgt.chans = append(tgt.chans, &fakeChannel{
			id: fmt.Sprintf("guest:/dev/fake%d", i), alive: true, responsive: true,
			ackDelay: 10 * sim.Microsecond,
		})
	}
	return env, tgt
}

// counter reads a supervisor counter from env's metrics registry.
func counter(env *sim.Env, name string) uint64 { return trace.Get(env).Metrics().Counter(name) }

var testCfg = Config{
	HeartbeatEvery:   sim.Millisecond,
	HeartbeatTimeout: 100 * sim.Microsecond,
	Misses:           2,
	BackoffBase:      sim.Millisecond,
	BackoffCap:       4 * sim.Millisecond,
	MaxRestarts:      4,
	StableAfter:      10 * sim.Millisecond,
}

func TestHealthyChannelsNeverRestart(t *testing.T) {
	env, tgt := newFakeRig(3)
	s := Start(env, tgt, testCfg)
	env.RunUntil(env.Now().Add(50 * sim.Millisecond))
	if tgt.restarts != 0 {
		t.Fatalf("healthy machine restarted %d times", tgt.restarts)
	}
	if got := s.State(); got != StateHealthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	if len(s.Changes()) != 0 {
		t.Fatalf("healthy machine logged state changes: %v", s.Changes())
	}
	// ~50 sweeps x 3 channels.
	if n := counter(env, "supervise.heartbeats.sent"); n < 100 {
		t.Fatalf("supervise.heartbeats.sent = %d, want >= 100", n)
	}
	if n := counter(env, "supervise.heartbeats.missed"); n != 0 {
		t.Fatalf("supervise.heartbeats.missed = %d, want 0", n)
	}
	s.Stop()
	env.Run()
}

func TestKMissDetectionHealsAndLogsMTTR(t *testing.T) {
	env, tgt := newFakeRig(2)
	s := Start(env, tgt, testCfg)
	// The driver VM goes silent (but not dead) at t=5ms.
	env.After(5*sim.Millisecond, func() { tgt.chans[0].responsive = false })
	env.RunUntil(env.Now().Add(50 * sim.Millisecond))

	if tgt.restarts != 1 {
		t.Fatalf("restarts = %d, want exactly 1", tgt.restarts)
	}
	if got := s.State(); got != StateHealthy {
		t.Fatalf("state = %v, want healthy after recovery", got)
	}
	chg := s.Changes()
	if len(chg) != 2 || chg[0].State != StateRestarting || chg[1].State != StateHealthy {
		t.Fatalf("change log = %+v, want [restarting, healthy]", chg)
	}
	// Detection needed exactly Misses consecutive missed beats.
	if n := counter(env, "supervise.heartbeats.missed"); n != uint64(testCfg.Misses) {
		t.Fatalf("supervise.heartbeats.missed = %d, want %d", n, testCfg.Misses)
	}
	if mttr := s.MTTR(); mttr <= 0 {
		t.Fatalf("MTTR = %v, want > 0", mttr)
	}
	s.Stop()
	env.Run()
}

func TestDeathNotificationBeatsTheSweep(t *testing.T) {
	env, tgt := newFakeRig(1)
	cfg := testCfg
	cfg.HeartbeatEvery = 20 * sim.Millisecond // sweeps are rare...
	s := Start(env, tgt, cfg)
	var killedAt, restartedAt sim.Time
	env.After(sim.Millisecond, func() {
		killedAt = env.Now()
		tgt.chans[0].kill()
	})
	env.RunUntil(env.Now().Add(100 * sim.Millisecond))
	if tgt.restarts != 1 {
		t.Fatalf("restarts = %d, want 1", tgt.restarts)
	}
	for _, c := range s.Changes() {
		if c.State == StateHealthy {
			restartedAt = c.At
		}
	}
	// ...but the OnDeath kick wakes the watchdog immediately: recovery
	// completes within backoff + verify-sweep, far inside one sweep period.
	if lat := restartedAt.Sub(killedAt); lat > 2*sim.Millisecond {
		t.Fatalf("detection+recovery took %v; the death notification should beat the %v sweep period",
			lat, cfg.HeartbeatEvery)
	}
	s.Stop()
	env.Run()
}

func TestBackoffScheduleThenDegraded(t *testing.T) {
	env, tgt := newFakeRig(2)
	tgt.restartErr = fmt.Errorf("replacement driver VM refuses to boot")
	s := Start(env, tgt, testCfg)
	env.After(sim.Millisecond, func() { tgt.chans[0].kill() })
	env.RunUntil(env.Now().Add(200 * sim.Millisecond))

	if got := s.State(); got != StateDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
	if !s.Stopped() {
		t.Fatal("degraded supervisor should stop itself")
	}
	if tgt.restarts != testCfg.MaxRestarts {
		t.Fatalf("restart attempts = %d, want the full budget %d", tgt.restarts, testCfg.MaxRestarts)
	}

	// The Restarting entries must be spaced by the exponential schedule:
	// base, 2*base, ... capped. (Restart attempts themselves fail instantly
	// here, so consecutive entry gaps are exactly the backoff sleeps.)
	var restartingAt []sim.Time
	for _, c := range s.Changes() {
		if c.State == StateRestarting {
			restartingAt = append(restartingAt, c.At)
		}
	}
	if len(restartingAt) != testCfg.MaxRestarts {
		t.Fatalf("%d restarting entries, want %d", len(restartingAt), testCfg.MaxRestarts)
	}
	want := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond}
	for i, w := range want {
		if got := restartingAt[i+1].Sub(restartingAt[i]); got != w {
			t.Fatalf("backoff gap %d = %v, want %v", i, got, w)
		}
	}

	// Selective degradation: the dead channel fails fast, the healthy one
	// was left alone.
	if !tgt.chans[0].degraded {
		t.Fatal("dead channel not degraded")
	}
	if tgt.chans[1].degraded {
		t.Fatal("healthy channel was degraded too")
	}
	last := s.Changes()[len(s.Changes())-1]
	if last.State != StateDegraded {
		t.Fatalf("last change = %+v, want degraded", last)
	}
	env.Run() // already stopped; calendar drains
}

func TestCrashLoopExhaustsBudget(t *testing.T) {
	env, tgt := newFakeRig(1)
	// Restarts "succeed" but the fault that killed the driver VM re-kills
	// every replacement: the verify-sweep must catch it and keep climbing
	// the schedule toward degraded.
	tgt.onRestart = func() { tgt.chans[0].alive = false }
	s := Start(env, tgt, testCfg)
	env.After(sim.Millisecond, func() { tgt.chans[0].kill() })
	env.RunUntil(env.Now().Add(200 * sim.Millisecond))
	if got := s.State(); got != StateDegraded {
		t.Fatalf("state = %v, want degraded after a crash loop", got)
	}
	if tgt.restarts != testCfg.MaxRestarts {
		t.Fatalf("restart attempts = %d, want %d", tgt.restarts, testCfg.MaxRestarts)
	}
	env.Run()
}

func TestStableWindowResetsBudget(t *testing.T) {
	env, tgt := newFakeRig(1)
	s := Start(env, tgt, testCfg)
	// Two failures, separated by far more than StableAfter of healthy
	// uptime: the second episode must start back at the base backoff, not
	// one step up the schedule.
	env.After(2*sim.Millisecond, func() { tgt.chans[0].kill() })
	env.After(80*sim.Millisecond, func() { tgt.chans[0].kill() })
	env.RunUntil(env.Now().Add(200 * sim.Millisecond))
	if tgt.restarts != 2 {
		t.Fatalf("restarts = %d, want 2", tgt.restarts)
	}
	var attempts []int
	for _, c := range s.Changes() {
		if c.State == StateRestarting {
			attempts = append(attempts, c.Attempt)
		}
	}
	if len(attempts) != 2 || attempts[0] != 0 || attempts[1] != 0 {
		t.Fatalf("budget positions = %v, want [0 0] (reset after stable window)", attempts)
	}
	s.Stop()
	env.Run()
}

func TestHandleProcPanicFiltersByProcName(t *testing.T) {
	env, tgt := newFakeRig(1)
	s := Start(env, tgt, testCfg)
	if !s.HandleProcPanic(&sim.ProcPanic{Proc: "cvd-dispatch-/dev/fake0", Value: "oops"}) {
		t.Fatal("dispatcher panic not consumed")
	}
	if !s.HandleProcPanic(&sim.ProcPanic{Proc: "cvd-op-7", Value: "oops"}) {
		t.Fatal("op-handler panic not consumed")
	}
	if s.HandleProcPanic(&sim.ProcPanic{Proc: "stress-3", Value: "oops"}) {
		t.Fatal("unrelated proc panic must not be consumed")
	}
	// The consumed panic counts as a failure: the watchdog restarts.
	env.RunUntil(env.Now().Add(50 * sim.Millisecond))
	if tgt.restarts == 0 {
		t.Fatal("consumed dispatcher panic did not trigger a restart")
	}
	s.Stop()
	env.Run()
}

func TestDegradedSupervisorConsumesNoMorePanics(t *testing.T) {
	env, tgt := newFakeRig(1)
	tgt.restartErr = fmt.Errorf("no boot")
	s := Start(env, tgt, testCfg)
	env.After(sim.Millisecond, func() { tgt.chans[0].kill() })
	env.RunUntil(env.Now().Add(200 * sim.Millisecond))
	if s.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded", s.State())
	}
	if s.HandleProcPanic(&sim.ProcPanic{Proc: "cvd-dispatch-x", Value: "late"}) {
		t.Fatal("degraded supervisor must stop absorbing panics")
	}
}

func TestBackoffFunction(t *testing.T) {
	s := &Supervisor{cfg: testCfg}
	want := []sim.Duration{
		sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond,
		4 * sim.Millisecond, 4 * sim.Millisecond,
	}
	for i, w := range want {
		if got := s.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
}
