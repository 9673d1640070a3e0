package paradice_test

// The live-handover scenarios: a planned driver-VM handover under sustained
// open-loop load must lose nothing and pause the device only for the drain
// window; every abort path must roll back to the still-live predecessor;
// and the typed restart sentinels plus the injected-restart-failure path
// must leave the machine fully usable.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/handover"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/supervise"
	"paradice/internal/usrlib"
	"paradice/internal/workload"
)

// sinkMachine builds a Paradice machine with the load sink registered into
// every driver-VM generation (required for post-handover rebinds) and one
// guest paravirtualizing it.
func sinkMachine(t *testing.T, cfg paradice.Config) (*paradice.Machine, *paradice.Guest) {
	t.Helper()
	m, err := paradice.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		k.RegisterDevice(load.SinkPath, sink, sink)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(load.SinkPath); err != nil {
		t.Fatal(err)
	}
	return m, g
}

// TestHandoverZeroLossUnderLoad is the tentpole acceptance scenario: a
// planned handover at ~60% of sink capacity completes with zero failed
// requests, parks (and then replays) the posts that arrived during the
// drain, hands the successor a warm map cache, and pauses the device for
// microseconds — not the driver-VM boot time.
func TestHandoverZeroLossUnderLoad(t *testing.T) {
	m, g := sinkMachine(t, paradice.Config{
		Mode:     paradice.Polling,
		GuestRAM: 256 << 20,
		MapCache: true,
		TLB:      true,
	})

	gen, err := load.NewGenerator(load.Profile{
		Path:     load.SinkPath,
		Classes:  []load.Class{{Name: "bulk", QoS: 0, Size: 2048, Weight: 1}},
		Arrival:  load.Poisson,
		Rate:     150_000,
		Clients:  300,
		Duration: 115 * sim.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(g.K); err != nil {
		t.Fatal(err)
	}

	// The witness writer: >= 2 KiB writes ride the bulk-grant fast path, so
	// its post-handover writes prove the successor's map cache came up warm.
	var witnessErr error
	witness, err := g.K.NewProcess("witness")
	if err != nil {
		t.Fatal(err)
	}
	witness.SpawnTask("writer", func(tk *kernel.Task) {
		fd, err := tk.Open(load.SinkPath, devfile.ORdWr)
		for attempt := 0; err != nil && attempt < 10000 &&
			(kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN)); attempt++ {
			tk.Sim().Sleep(20 * sim.Microsecond)
			fd, err = tk.Open(load.SinkPath, devfile.ORdWr)
		}
		if err != nil {
			witnessErr = err
			return
		}
		buf, _ := witness.Alloc(4096)
		end := tk.Sim().Now().Add(115 * sim.Millisecond)
		for tk.Sim().Now() < end {
			_, err := tk.Write(fd, buf, 4096)
			for attempt := 0; err != nil && attempt < 10000 &&
				(kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN)); attempt++ {
				tk.Sim().Sleep(20 * sim.Microsecond)
				_, err = tk.Write(fd, buf, 4096)
			}
			if err != nil {
				witnessErr = err
				return
			}
			tk.Sim().Sleep(500 * sim.Microsecond)
		}
	})

	var hoErr error
	m.Env.Spawn("handover-driver", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		hoErr = m.HandoverDriverVM()
	})
	m.Run()

	if hoErr != nil {
		t.Fatalf("handover: %v", hoErr)
	}
	if witnessErr != nil {
		t.Fatalf("witness write failed across handover: %v", witnessErr)
	}
	if !gen.Done() {
		t.Fatal("generator clients did not drain")
	}
	res := gen.Result()
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	for i := range res.Classes {
		if n := res.Classes[i].Errors; n != 0 {
			t.Fatalf("class %s: %d requests failed during a planned handover, want 0",
				res.Classes[i].Class.Name, n)
		}
	}

	eps := m.Handovers()
	if len(eps) != 1 {
		t.Fatalf("episodes: %d, want 1", len(eps))
	}
	ep := eps[0]
	if ep.Aborted || ep.Stage != handover.StageDone {
		t.Fatalf("episode not committed: %+v", ep)
	}
	if m.RestartEpoch() != 1 {
		t.Fatalf("restart epoch %d, want 1", m.RestartEpoch())
	}
	// The pause is the drain window plus the switch — not the 100 ms boot.
	if ep.Pause >= perf.CostDriverVMRestart/10 {
		t.Fatalf("pause %v not well below the restart outage %v", ep.Pause, perf.CostDriverVMRestart)
	}
	fe := g.Frontends[load.SinkPath]
	if fe.QueuedPosts == 0 {
		t.Fatal("no posts parked during the drain — the quiesce stage never saw traffic")
	}
	be := g.Frontends[load.SinkPath].Backend()
	hits, _, _ := be.MapCacheStats()
	if hits == 0 {
		t.Fatal("successor map cache has zero hits — the warm transfer did not take")
	}
	if be.WarmReopens == 0 {
		t.Fatal("no warm re-opens — predecessor file state was not carried over")
	}
}

// TestHandoverAbortRollsBack drives each injected stage failure and asserts
// the machine rolls back to the still-live predecessor: no epoch bump, the
// episode records the aborted stage, and the device keeps working.
func TestHandoverAbortRollsBack(t *testing.T) {
	cases := []struct {
		point string
		stage handover.Stage
		want  error
	}{
		{"machine.handover.fail", handover.StagePrepare, handover.ErrPrepare},
		{"handover.drain.timeout", handover.StageQuiesce, handover.ErrDrainTimeout},
		{"handover.warm.fail", handover.StageSwitch, handover.ErrSwitch},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
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
			res, err := workload.RunMatmul(m.Env, g.K, 24, 1)
			if err != nil || !res.Correct {
				t.Fatalf("pre-handover matmul: %+v %v", res, err)
			}

			faults.Install(m.Env, faults.New(1).FailAt(tc.point, 1))
			defer faults.Uninstall(m.Env)

			hoErr := m.HandoverDriverVM()
			if hoErr == nil {
				t.Fatal("handover succeeded despite injected failure")
			}
			if !errors.Is(hoErr, tc.want) {
				t.Fatalf("handover error %v, want %v", hoErr, tc.want)
			}
			if m.RestartEpoch() != 0 {
				t.Fatalf("epoch moved to %d on an aborted handover", m.RestartEpoch())
			}
			eps := m.Handovers()
			if len(eps) != 1 || !eps[0].Aborted || eps[0].Stage != tc.stage {
				t.Fatalf("episode: %+v, want aborted at %v", eps, tc.stage)
			}
			// The predecessor still serves: same machine, same epoch, next
			// operation succeeds without a reconnect.
			res, err = workload.RunMatmul(m.Env, g.K, 24, 2)
			if err != nil || !res.Correct {
				t.Fatalf("post-abort matmul: %+v %v", res, err)
			}
		})
	}
}

// wedgeDev is a load sink whose reads never complete, one instance per
// driver-VM generation, counting the writes that generation served.
type wedgeDev struct {
	*load.Sink
	never  *sim.Event
	writes int
}

func (w *wedgeDev) Read(c *kernel.FopCtx, dst mem.GuestVirt, n int) (int, error) {
	c.Task.Sim().Wait(w.never)
	return 0, kernel.EIO
}

func (w *wedgeDev) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	w.writes++
	return w.Sink.Write(c, src, n)
}

// TestHandoverDrainDeadlineAborts wedges one operation in flight on the
// predecessor, so the quiesce stage runs into its real deadline (no
// "handover.drain.timeout" shortcut). The handover must abort at quiesce
// with ErrDrainTimeout after pausing the device for at least the deadline,
// release the post parked meanwhile exactly once, to the predecessor, and
// leave the restart epoch alone.
func TestHandoverDrainDeadlineAborts(t *testing.T) {
	const path = "/dev/wedge"
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sink := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
	var gens []*wedgeDev
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		w := &wedgeDev{Sink: sink, never: m.Env.NewEvent()}
		gens = append(gens, w)
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
	pred := g.Frontends[path].Backend()

	// The handover starts at kick; its prepare stage boots the successor
	// for CostDriverVMRestart, then the drain begins.
	const kick = sim.Millisecond
	drainStart := sim.Time(kick + perf.CostDriverVMRestart)
	var readDone bool
	var writeErr error
	writes := 0
	p, _ := g.NewProcess("app")
	p.SpawnTask("reader", func(tk *kernel.Task) {
		fd, err := tk.Open(path, devfile.ORdOnly)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := p.Alloc(16)
		tk.Read(fd, buf, 16)
		readDone = true
	})
	p.SpawnTask("writer", func(tk *kernel.Task) {
		fd, err := tk.Open(path, devfile.OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := p.Alloc(64)
		tk.Sim().Sleep(drainStart.Sub(tk.Sim().Now()) + 500*sim.Microsecond)
		_, writeErr = tk.Write(fd, buf, 64)
		writes++
	})
	var hoErr error
	m.Env.Spawn("maintenance", func(proc *sim.Proc) {
		proc.Sleep(kick)
		hoErr = m.HandoverDriverVM()
	})
	m.RunUntil(drainStart.Add(50 * sim.Millisecond))

	if !errors.Is(hoErr, handover.ErrDrainTimeout) {
		t.Fatalf("handover error %v, want ErrDrainTimeout", hoErr)
	}
	eps := m.Handovers()
	if len(eps) != 1 || !eps[0].Aborted || eps[0].Stage != handover.StageQuiesce {
		t.Fatalf("episode: %+v, want one aborted at quiesce", eps)
	}
	if eps[0].Pause < handover.DrainDeadline {
		t.Fatalf("pause %v shorter than the drain deadline %v", eps[0].Pause, handover.DrainDeadline)
	}
	if q := g.Frontends[path].QueuedPosts; q != 1 {
		t.Fatalf("parked posts = %d, want 1", q)
	}
	if writes != 1 || writeErr != nil {
		t.Fatalf("parked write returned %d times, err %v; want once, nil", writes, writeErr)
	}
	var served []int
	for _, w := range gens {
		served = append(served, w.writes)
	}
	if fmt.Sprint(served) != "[1 0]" {
		t.Fatalf("writes served per driver-VM generation = %v, want [1 0] (predecessor, successor)", served)
	}
	if g.Frontends[path].Backend() != pred {
		t.Fatal("aborted handover replaced the predecessor backend")
	}
	if m.RestartEpoch() != 0 {
		t.Fatalf("epoch moved to %d on an aborted handover", m.RestartEpoch())
	}
	if readDone {
		t.Fatal("the wedged read completed")
	}
}

// TestRestartFailLeavesMachineUsable is the restart-side regression twin: an
// injected machine.restart.fail surfaces as ErrRestartFailed, the epoch does
// not move, and the machine keeps serving on the original driver VM.
func TestRestartFailLeavesMachineUsable(t *testing.T) {
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

	faults.Install(m.Env, faults.New(1).FailAt("machine.restart.fail", 1))
	defer faults.Uninstall(m.Env)

	err = m.RestartDriverVM()
	if !errors.Is(err, paradice.ErrRestartFailed) {
		t.Fatalf("restart error %v, want ErrRestartFailed", err)
	}
	if m.RestartEpoch() != 0 {
		t.Fatalf("epoch moved to %d on a failed restart", m.RestartEpoch())
	}
	res, err := workload.RunMatmul(m.Env, g.K, 24, 3)
	if err != nil || !res.Correct {
		t.Fatalf("post-failed-restart matmul: %+v %v", res, err)
	}
}

// TestLifecycleSentinels pins the typed errors the lifecycle guards return,
// for both RestartDriverVM and HandoverDriverVM.
func TestLifecycleSentinels(t *testing.T) {
	t.Run("no-driver-vm", func(t *testing.T) {
		m, err := paradice.NewNative(paradice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RestartDriverVM(); !errors.Is(err, paradice.ErrNoDriverVM) {
			t.Fatalf("restart on native: %v, want ErrNoDriverVM", err)
		}
		if err := m.HandoverDriverVM(); !errors.Is(err, paradice.ErrNoDriverVM) {
			t.Fatalf("handover on native: %v, want ErrNoDriverVM", err)
		}
	})
	t.Run("data-isolation", func(t *testing.T) {
		m, err := paradice.New(paradice.Config{DataIsolation: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RestartDriverVM(); !errors.Is(err, paradice.ErrDataIsolationRestart) {
			t.Fatalf("restart with DI: %v, want ErrDataIsolationRestart", err)
		}
		if err := m.HandoverDriverVM(); !errors.Is(err, paradice.ErrDataIsolationRestart) {
			t.Fatalf("handover with DI: %v, want ErrDataIsolationRestart", err)
		}
	})
	t.Run("in-progress", func(t *testing.T) {
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
		// A restart on a sim proc holds the lifecycle lock for its 100 ms
		// boot; a handover attempted mid-boot must refuse, typed.
		var restartErr, overlapErr error
		m.Env.Spawn("restart", func(p *sim.Proc) {
			restartErr = m.RestartDriverVM()
		})
		m.Env.Spawn("overlap", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			overlapErr = m.HandoverDriverVM()
		})
		m.RunUntil(m.Env.Now().Add(300 * sim.Millisecond))
		if restartErr != nil {
			t.Fatalf("restart: %v", restartErr)
		}
		if !errors.Is(overlapErr, paradice.ErrRestartInProgress) {
			t.Fatalf("overlapping handover: %v, want ErrRestartInProgress", overlapErr)
		}
	})
}

// TestParavirtualizeDuringHandover adds a guest and paravirtualizes the
// sink 50 ms into a handover's successor boot. The handover takes the
// shard's channel list when it starts, so a channel connected then would
// stay on the retired predecessor, and an Open after the handover would
// never finish.
// Paravirtualize must refuse with ErrRestartInProgress instead; retried
// after the handover, the channel serves from the successor.
func TestParavirtualizeDuringHandover(t *testing.T) {
	m, _ := sinkMachine(t, paradice.Config{})
	defer m.Close()
	var hoErr error
	m.Env.Spawn("handover-driver", func(p *sim.Proc) { hoErr = m.HandoverDriverVM() })
	var refused []error
	var task *kernel.Task
	m.Env.Spawn("late-guest", func(p *sim.Proc) {
		p.Sleep(50 * sim.Millisecond)
		g, err := m.AddGuest("late", paradice.Linux)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			err := g.Paravirtualize(load.SinkPath)
			if err == nil {
				break
			}
			if !errors.Is(err, paradice.ErrRestartInProgress) {
				t.Error(err)
				return
			}
			refused = append(refused, err)
			p.Sleep(10 * sim.Millisecond)
		}
		proc, err := g.NewProcess("client")
		if err != nil {
			t.Error(err)
			return
		}
		task = proc.Go("open", func(tk *kernel.Task) error {
			// Open once the handover has committed and retired the
			// predecessor.
			tk.Sim().Sleep(sim.Time(0).Add(150 * sim.Millisecond).Sub(m.Env.Now()))
			buf, err := proc.Alloc(64)
			if err != nil {
				return err
			}
			fd, err := tk.Open(load.SinkPath, devfile.ORdWr)
			if err != nil {
				return err
			}
			if _, err := tk.Ioctl(fd, load.Cmd(64), buf); err != nil {
				return err
			}
			return tk.Close(fd)
		})
	})
	m.RunUntil(m.Env.Now().Add(400 * sim.Millisecond))
	if hoErr != nil {
		t.Fatalf("handover: %v", hoErr)
	}
	if task == nil {
		t.Fatal("the late guest never paravirtualized the sink")
	}
	if err := task.Err(); err != nil {
		t.Fatalf("late guest's first op: %v", err)
	}
	if len(refused) == 0 {
		t.Fatal("Paravirtualize during the successor boot was not refused")
	}
	if be := m.Guests()[1].Frontends[load.SinkPath].Backend(); be == nil || be.Proc().K != m.DriverK {
		t.Fatal("the late guest's channel is not served by the successor driver VM")
	}
}

// TestWithReopenAcrossHandover races a WithReopen client loop against a
// planned handover on both transports: every operation must land — on the
// predecessor, parked through the drain, or on the successor — without a
// spurious ENODEV ever reaching the library.
func TestWithReopenAcrossHandover(t *testing.T) {
	for _, mode := range []paradice.Mode{paradice.Interrupts, paradice.Polling} {
		name := "interrupts"
		if mode == paradice.Polling {
			name = "polling"
		}
		t.Run(name, func(t *testing.T) {
			m, g := sinkMachine(t, paradice.Config{Mode: mode})

			var opErrs []error
			client, err := g.K.NewProcess("client")
			if err != nil {
				t.Fatal(err)
			}
			client.SpawnTask("loop", func(tk *kernel.Task) {
				buf, _ := client.Alloc(64)
				for i := 0; i < 60; i++ {
					err := usrlib.WithReopen(tk, load.SinkPath, devfile.ORdWr, 5, func(fd int) error {
						_, err := tk.Ioctl(fd, load.Cmd(64), buf)
						return err
					})
					if err != nil {
						opErrs = append(opErrs, err)
					}
					tk.Sim().Sleep(2 * sim.Millisecond)
				}
			})

			var hoErr error
			m.Env.Spawn("handover-driver", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond)
				hoErr = m.HandoverDriverVM()
			})
			m.Run()

			if hoErr != nil {
				t.Fatalf("handover: %v", hoErr)
			}
			for _, err := range opErrs {
				if kernel.IsErrno(err, kernel.ENODEV) {
					t.Fatalf("WithReopen surfaced ENODEV across a planned handover: %v", err)
				}
			}
			if len(opErrs) != 0 {
				t.Fatalf("WithReopen failed %d times across handover: %v", len(opErrs), opErrs[0])
			}
			eps := m.Handovers()
			if len(eps) != 1 || eps[0].Aborted {
				t.Fatalf("episode: %+v", eps)
			}
		})
	}
}

// TestRequestHandoverViaSupervisor runs the planned handover on the
// supervisor's watchdog proc: the maintenance episode lands in the
// state-change log, the watchdog never mistakes the drain for an outage,
// and the machine stays Healthy on the successor.
func TestRequestHandoverViaSupervisor(t *testing.T) {
	m, g := sinkMachine(t, paradice.Config{Mode: paradice.Polling, Supervise: &supervise.Config{}})

	if err := m.RequestHandover(); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(m.Env.Now().Add(300 * sim.Millisecond))

	eps := m.Handovers()
	if len(eps) != 1 || eps[0].Aborted || eps[0].Stage != handover.StageDone {
		t.Fatalf("episode: %+v, want one committed handover", eps)
	}
	if m.RestartEpoch() != 1 {
		t.Fatalf("restart epoch %d, want 1", m.RestartEpoch())
	}
	s := m.Supervisor()
	if s.State() != supervise.StateHealthy {
		t.Fatalf("supervisor state %v after planned handover, want Healthy", s.State())
	}
	logged := false
	for _, ch := range s.Changes() {
		if ch.State == supervise.StateRestarting {
			t.Fatalf("supervisor entered Restarting during a planned handover: %+v", ch)
		}
		if strings.Contains(ch.Reason, "maintenance: driver-VM handover") {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("maintenance episode missing from the state-change log: %+v", s.Changes())
	}
	// The successor serves: a fresh operation works without intervention.
	var opErr error
	p, _ := g.K.NewProcess("probe")
	p.SpawnTask("op", func(tk *kernel.Task) {
		buf, _ := p.Alloc(64)
		opErr = usrlib.WithReopen(tk, load.SinkPath, devfile.ORdWr, 5, func(fd int) error {
			_, err := tk.Ioctl(fd, load.Cmd(64), buf)
			return err
		})
	})
	m.RunUntil(m.Env.Now().Add(50 * sim.Millisecond))
	if opErr != nil {
		t.Fatalf("post-handover op: %v", opErr)
	}
}
