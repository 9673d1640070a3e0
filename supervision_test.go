package paradice_test

// Integration tests for driver-VM supervision on a full Paradice machine:
// the watchdog detects a fault-injected backend death and heals it with no
// manual RestartDriverVM call; a crash-looping fault plan climbs the backoff
// schedule into degraded mode; degradation is selective per device; a
// slow-but-healthy driver VM is never restarted; and the restart-epoch guard
// rejects concurrent restarts.

import (
	"strings"
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/driver/drm"
	"paradice/internal/faults"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/supervise"
	"paradice/internal/usrlib"
)

// gemCreateOn issues one GEM-create ioctl — a minimal operation needing live
// per-fd driver state, so it fails on a dead backend or a stale fd.
func gemCreateOn(tk *kernel.Task, fd int) error {
	arg, err := tk.Proc.Alloc(16)
	if err != nil {
		return err
	}
	buf := make([]byte, 16)
	buf[1] = 0x10 // size = 4096
	if err := tk.Proc.Mem.Write(arg, buf); err != nil {
		return err
	}
	_, err = tk.Ioctl(fd, drm.IoctlGemCreate, arg)
	return err
}

func newSupervisedMachine(t *testing.T, cfg paradice.Config) (*paradice.Machine, *paradice.Guest) {
	t.Helper()
	if cfg.Supervise == nil {
		cfg.Supervise = &supervise.Config{}
	}
	m, err := paradice.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU, paradice.PathMouse); err != nil {
		t.Fatal(err)
	}
	return m, g
}

// The headline acceptance scenario: a fault kills the GPU channel's backend
// mid-workload; supervision detects and restarts the driver VM with no
// manual call; the guest's in-flight/failed operation surfaces a real errno,
// and a paced reopen succeeds against the healed machine.
func TestSupervisionHealsKilledBackend(t *testing.T) {
	m, g := newSupervisedMachine(t, paradice.Config{})

	var firstErr error
	recovered := false
	p, err := g.NewProcess("victim")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open(paradice.PathGPU, devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		// Steady workload until the injected death breaks it.
		for i := 0; i < 500; i++ {
			if err := gemCreateOn(tk, fd); err != nil {
				firstErr = err
				break
			}
			tk.Sim().Sleep(sim.Millisecond)
		}
		if firstErr == nil {
			return // kill never landed; the test fails below
		}
		// Application-side recovery: pace reopen attempts while the
		// supervisor heals the machine. No manual restart anywhere.
		for tries := 0; tries < 200; tries++ {
			nfd, err := tk.Open(paradice.PathGPU, devfile.ORdWr)
			if err == nil {
				if err := gemCreateOn(tk, nfd); err != nil {
					t.Errorf("post-heal op: %v", err)
					return
				}
				recovered = true
				return
			}
			if !usrlib.IsRestartErr(err) {
				t.Errorf("reopen: non-transient %v", err)
				return
			}
			tk.Sim().Sleep(5 * sim.Millisecond)
		}
	})

	m.Env.After(50*sim.Millisecond, func() { g.Frontends[paradice.PathGPU].Backend().Kill() })
	m.RunUntil(m.Env.Now().Add(2 * sim.Second))

	if firstErr == nil {
		t.Fatal("workload never observed the injected death")
	}
	if !usrlib.IsRestartErr(firstErr) {
		t.Fatalf("workload saw %v, want a restart-transient errno", firstErr)
	}
	if !recovered {
		t.Fatal("guest did not recover after supervised heal")
	}
	if got := m.RestartEpoch(); got != 1 {
		t.Fatalf("restart epoch = %d, want 1 automatic restart", got)
	}
	sup := m.Supervisor()
	if sup.State() != supervise.StateHealthy {
		t.Fatalf("supervisor state = %v, want healthy", sup.State())
	}
	mttr := sup.MTTR()
	if mttr <= 0 {
		t.Fatal("no completed recovery episode in the change log")
	}
	t.Logf("MTTR (backoff + driver VM reboot + verify): %v", mttr)
}

// A crash-looping fault plan — every replacement backend dies instantly —
// must exhaust the restart budget and land in degraded mode, with the dead
// device failing fast ENODEV.
func TestSupervisionCrashLoopLandsDegraded(t *testing.T) {
	cfg := paradice.Config{
		Supervise: &supervise.Config{
			HeartbeatEvery: sim.Millisecond,
			BackoffBase:    sim.Millisecond,
			BackoffCap:     8 * sim.Millisecond,
			MaxRestarts:    3,
		},
	}
	m, g := newSupervisedMachine(t, cfg)
	tr := m.StartTrace()
	plan := faults.New(1).Probability("cvd.backend.die", 1.0)
	faults.Install(m.Env, plan)
	defer faults.Uninstall(m.Env)

	m.RunUntil(m.Env.Now().Add(2 * sim.Second))

	sup := m.Supervisor()
	if sup.State() != supervise.StateDegraded {
		t.Fatalf("supervisor state = %v, want degraded", sup.State())
	}
	if !sup.Stopped() {
		t.Fatal("degraded supervisor should have stopped")
	}
	if got := int(tr.Metrics().Counter("supervise.restarts")); got != cfg.Supervise.MaxRestarts {
		t.Fatalf("restart attempts = %d, want the full budget %d", got, cfg.Supervise.MaxRestarts)
	}
	chg := sup.Changes()
	if len(chg) == 0 || chg[len(chg)-1].State != supervise.StateDegraded {
		t.Fatalf("change log does not end degraded: %+v", chg)
	}

	// Everything is dead here, so every channel degraded: guest operations
	// fail fast with ENODEV instead of hanging.
	faults.Uninstall(m.Env)
	var openErr error
	p, _ := g.NewProcess("late")
	p.SpawnTask("main", func(tk *kernel.Task) {
		_, openErr = tk.Open(paradice.PathGPU, devfile.ORdWr)
	})
	m.RunUntil(m.Env.Now().Add(10 * sim.Millisecond))
	if !kernel.IsErrno(openErr, kernel.ENODEV) {
		t.Fatalf("open on degraded device: %v, want ENODEV", openErr)
	}
}

// Restart-time failures (the replacement driver VM refuses to boot) climb
// the exact backoff schedule, and degradation is selective: only the dead
// channel fails ENODEV, the healthy one keeps serving.
func TestSupervisionBackoffScheduleAndSelectiveDegrade(t *testing.T) {
	cfg := paradice.Config{
		Supervise: &supervise.Config{
			HeartbeatEvery: sim.Millisecond,
			BackoffBase:    sim.Millisecond,
			BackoffCap:     4 * sim.Millisecond,
			MaxRestarts:    4,
		},
	}
	m, g := newSupervisedMachine(t, cfg)
	// Every restart attempt fails before touching the machine; the GPU
	// backend is killed once.
	plan := faults.New(1).Probability("machine.restart.fail", 1.0)
	faults.Install(m.Env, plan)
	defer faults.Uninstall(m.Env)
	m.Env.After(10*sim.Millisecond, func() { g.Frontends[paradice.PathGPU].Backend().Kill() })

	m.RunUntil(m.Env.Now().Add(sim.Second))

	sup := m.Supervisor()
	if sup.State() != supervise.StateDegraded {
		t.Fatalf("supervisor state = %v, want degraded", sup.State())
	}
	if got := m.RestartEpoch(); got != 0 {
		t.Fatalf("restart epoch = %d, want 0 (every attempt failed)", got)
	}

	// Failed attempts consume no virtual time, so consecutive Restarting
	// entries are spaced by exactly the backoff schedule: 1ms, 2ms, 4ms.
	var at []sim.Time
	for _, c := range sup.Changes() {
		if c.State == supervise.StateRestarting {
			at = append(at, c.At)
		}
	}
	if len(at) != cfg.Supervise.MaxRestarts {
		t.Fatalf("%d restarting entries, want %d", len(at), cfg.Supervise.MaxRestarts)
	}
	want := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond}
	for i, w := range want {
		if got := at[i+1].Sub(at[i]); got != w {
			t.Fatalf("backoff gap %d = %v, want %v", i, got, w)
		}
	}

	// Selective degradation: GPU dead -> ENODEV; mouse untouched -> opens.
	faults.Uninstall(m.Env)
	var gpuErr, mouseErr error
	p, _ := g.NewProcess("probe")
	p.SpawnTask("main", func(tk *kernel.Task) {
		_, gpuErr = tk.Open(paradice.PathGPU, devfile.ORdWr)
		var fd int
		fd, mouseErr = tk.Open(paradice.PathMouse, devfile.ORdOnly)
		if mouseErr == nil {
			mouseErr = tk.Close(fd)
		}
	})
	m.RunUntil(m.Env.Now().Add(10 * sim.Millisecond))
	if !kernel.IsErrno(gpuErr, kernel.ENODEV) {
		t.Fatalf("dead GPU open: %v, want ENODEV", gpuErr)
	}
	if mouseErr != nil {
		t.Fatalf("healthy mouse must keep working, got %v", mouseErr)
	}
}

// A driver VM that answers every heartbeat slowly — but inside the timeout —
// must never be restarted: the no-false-positive property the timeout and
// miss threshold exist for.
func TestSupervisionNoFalsePositiveOnSlowDriver(t *testing.T) {
	cfg := paradice.Config{
		Supervise: &supervise.Config{
			HeartbeatEvery:   2 * sim.Millisecond,
			HeartbeatTimeout: 200 * sim.Microsecond,
		},
	}
	m, _ := newSupervisedMachine(t, cfg)
	tr := m.StartTrace()
	// Sustained latency just under the deadline on every heartbeat of the
	// run (two channels x ~25 sweeps).
	plan := faults.New(1)
	for hit := 1; hit <= 80; hit++ {
		plan.FailAtWith("cvd.heartbeat.delay", hit, uint64(150*sim.Microsecond))
	}
	faults.Install(m.Env, plan)
	defer faults.Uninstall(m.Env)

	m.RunUntil(m.Env.Now().Add(50 * sim.Millisecond))

	sup := m.Supervisor()
	if got := m.RestartEpoch(); got != 0 {
		t.Fatalf("slow-but-healthy driver VM was restarted %d times", got)
	}
	if sup.State() != supervise.StateHealthy {
		t.Fatalf("supervisor state = %v, want healthy", sup.State())
	}
	if len(sup.Changes()) != 0 {
		t.Fatalf("state changes on a healthy machine: %+v", sup.Changes())
	}
	if n := tr.Metrics().Counter("supervise.heartbeats.missed"); n != 0 {
		t.Fatalf("%d heartbeats missed; delays were inside the timeout", n)
	}
	if plan.Injected("cvd.heartbeat.delay") == 0 {
		t.Fatal("delay faults never fired; the test exercised nothing")
	}
}

// A supervised machine bounds every forwarded operation's wait: a read the
// device never answers fails with ETIMEDOUT once its 50 ms deadline has
// passed, and not before. The dispatcher keeps acking heartbeats meanwhile,
// so the watchdog sees nothing wrong and restarts nothing. Unsupervised, the
// same read is still blocked at 200 ms: the paper's wait-forever behavior.
func TestSupervisedRequestDeadline(t *testing.T) {
	const path = "/dev/wedge"
	for _, supervised := range []bool{true, false} {
		var cfg paradice.Config
		if supervised {
			cfg.Supervise = &supervise.Config{}
		}
		m, err := paradice.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
		if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
			w := &wedgeDev{Sink: sink, never: m.Env.NewEvent()}
			k.RegisterDevice(path, w, w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		g, err := m.AddGuest("guest", paradice.Linux)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Paravirtualize(path); err != nil {
			t.Fatal(err)
		}
		var posted, returned sim.Time
		var readErr error
		done := false
		p, _ := g.NewProcess("app")
		p.SpawnTask("reader", func(tk *kernel.Task) {
			fd, err := tk.Open(path, devfile.ORdOnly)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			buf, _ := p.Alloc(64)
			posted = tk.Sim().Now()
			_, readErr = tk.Read(fd, buf, 64)
			returned, done = tk.Sim().Now(), true
		})
		m.RunUntil(sim.Time(200 * sim.Millisecond))
		if supervised {
			waited := returned.Sub(posted)
			if !done || !kernel.IsErrno(readErr, kernel.ETIMEDOUT) {
				t.Errorf("supervised: read done=%v err=%v, want ETIMEDOUT", done, readErr)
			} else if waited < 50*sim.Millisecond || waited > 50*sim.Millisecond+50*sim.Microsecond {
				t.Errorf("supervised: read failed after %v, want just past the 50 ms deadline", waited)
			}
			if got := m.RestartEpoch(); got != 0 {
				t.Errorf("supervised: %d restarts, want none (the backend answers heartbeats)", got)
			}
		} else if done {
			t.Errorf("unsupervised: read returned (err %v) at %v, want it still blocked", readErr, returned)
		}
		m.Close()
	}
}

// The restart epoch guard: the reboot yields the simulated CPU mid-restart,
// and a second caller arriving in that window gets a clean error instead of
// a half-torn-down machine.
func TestRestartEpochGuardsConcurrentRestart(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	var err1, err2 error
	m.Env.Spawn("op1", func(p *sim.Proc) { err1 = m.RestartDriverVM() })
	m.Env.Spawn("op2", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // lands inside op1's 100ms reboot window
		err2 = m.RestartDriverVM()
	})
	m.Run()
	if err1 != nil {
		t.Fatalf("first restart: %v", err1)
	}
	if err2 == nil || !strings.Contains(err2.Error(), "already in progress") {
		t.Fatalf("concurrent restart: err = %v, want 'already in progress'", err2)
	}
	if got := m.RestartEpoch(); got != 1 {
		t.Fatalf("restart epoch = %d, want 1", got)
	}
}

// Supervision requires a driver VM.
func TestSupervisionRequiresParadice(t *testing.T) {
	if _, err := paradice.NewNative(paradice.Config{Supervise: &supervise.Config{}}); err == nil {
		t.Fatal("native machine accepted Supervise")
	}
}

// MTTR sweep across watchdog heartbeat intervals — the numbers behind the
// "Recovery" section of EXPERIMENTS.md. Failure mode: a rogue driver VM that
// stops answering heartbeats (backend alive, acks dropped), so detection
// genuinely costs Misses x (interval + timeout).
func TestSupervisionMTTRSweep(t *testing.T) {
	const onset = 10 * sim.Millisecond
	for _, every := range []sim.Duration{sim.Millisecond, 2 * sim.Millisecond,
		5 * sim.Millisecond, 10 * sim.Millisecond} {
		cfg := paradice.Config{Supervise: &supervise.Config{HeartbeatEvery: every}}
		m, _ := newSupervisedMachine(t, cfg)
		scfg := m.Supervisor().Config()
		// Exactly enough scripted drops (two channels x Misses sweeps) to
		// push the first-swept channel past the miss threshold; at most one
		// drop survives into the healed machine, where a single isolated
		// miss never reaches the threshold. The restarted driver VM's
		// heartbeats beyond that are unscripted and ack normally.
		plan := faults.New(1)
		for hit := 1; hit <= 2*scfg.Misses; hit++ {
			plan.FailAtWith("cvd.heartbeat.drop", hit, 0)
		}
		m.Env.After(onset, func() { faults.Install(m.Env, plan) })

		m.RunUntil(m.Env.Now().Add(2 * sim.Second))
		faults.Uninstall(m.Env)

		sup := m.Supervisor()
		if m.RestartEpoch() != 1 || sup.State() != supervise.StateHealthy {
			t.Fatalf("every=%v: epoch=%d state=%v, want one clean heal",
				every, m.RestartEpoch(), sup.State())
		}
		var healthyAt sim.Time
		for _, c := range sup.Changes() {
			if c.State == supervise.StateHealthy {
				healthyAt = c.At
			}
		}
		recovery := healthyAt.Sub(sim.Time(onset))
		t.Logf("HeartbeatEvery=%v: failure-to-healthy %v (detect ~%dx(%v+%v), backoff %v, reboot 100ms)",
			every, recovery, scfg.Misses, every, scfg.HeartbeatTimeout, scfg.BackoffBase)
		if recovery <= 0 || recovery > sim.Second {
			t.Fatalf("every=%v: implausible recovery latency %v", every, recovery)
		}
	}
}

// panicOnce is a harness driver whose first ioctl panics: a driver-VM oops
// on whichever shard serves it. Later ioctls succeed.
type panicOnce struct {
	kernel.BaseOps
	fired bool
}

func (d *panicOnce) Ioctl(*kernel.FopCtx, devfile.IoctlCmd, mem.GuestVirt) (int32, error) {
	if !d.fired {
		d.fired = true
		panic("harness driver oops")
	}
	return 0, nil
}

// A backend panic is its own shard's oops: on a 2-shard supervised machine,
// an ioctl that panics the driver behind a device pinned to shard 1 makes
// shard 1's supervisor restart shard 1, while shard 0 keeps its driver VM
// and shard 0's supervisor logs no change.
func TestSupervisionShardPanicRestartsOnlyItsShard(t *testing.T) {
	const path = "/dev/panicky"
	m, err := paradice.New(paradice.Config{DriverShards: 2, Supervise: &supervise.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	drv := &panicOnce{}
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		k.RegisterDevice(path, drv, drv)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.PinDevice(path, 1); err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(path); err != nil {
		t.Fatal(err)
	}
	vm0, vm1 := m.Shards()[0].VM, m.Shards()[1].VM
	p, err := g.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	var oopsErr error
	p.SpawnTask("main", func(tk *kernel.Task) {
		fd, err := tk.Open(path, devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		_, oopsErr = tk.Ioctl(fd, devfile.IO('P', 0), 0)
	})
	m.RunUntil(m.Env.Now().Add(500 * sim.Millisecond))

	if !drv.fired {
		t.Fatal("the harness driver never saw the ioctl")
	}
	if !usrlib.IsRestartErr(oopsErr) {
		t.Fatalf("ioctl through the oops returned %v, want a restart-transient errno", oopsErr)
	}
	if m.Shards()[1].VM == vm1 {
		t.Fatal("shard 1 kept its driver VM: its supervisor did not restart it")
	}
	if got := m.RestartEpoch(); got != 1 {
		t.Fatalf("restart epoch = %d, want one restart", got)
	}
	if m.Shards()[0].VM != vm0 {
		t.Fatal("shard 0's driver VM was replaced by shard 1's oops")
	}
	if ch := m.Supervisor().Changes(); len(ch) != 0 {
		t.Fatalf("shard 0's supervisor logged %v, want no change", ch)
	}
}
