package paradice_test

// Multi-guest lifecycle regression tests.
//
// TestRestartTeardownDeterministic pins the fix for a single-guest
// assumption in the restart path: the backend-stop loop in RestartDriverVM
// used to iterate the guest's Backends map directly, so with more than one
// channel per guest the STOP ORDER varied run to run (Go map iteration).
// Stop order is observable: dropping each backend's map cache charges
// CostMapPage per cached page in the supervisor's proc context, so the
// simulated instant at which each backend's stopped flag latches depends on
// how many pages the backends stopped *before* it held — and with live
// traffic racing the teardown, which in-flight operations fast-fail changes
// with it. The repo's own discipline (guest.sortedPaths: "every lifecycle
// loop over a guest's channels walks this, never the map") covers every
// other lifecycle loop; this test makes sure the stop loop stays honest.

import (
	"bytes"
	"fmt"
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
	"paradice/internal/supervise"
)

const (
	teardownPathA = "/dev/sinkA"
	teardownPathB = "/dev/sinkB"
)

// restartTeardownDump runs one supervised restart-under-load scenario and
// returns its metrics dump. Two channels with deliberately ASYMMETRIC map
// caches (8 KiB writes -> 2 cached pages vs 32 KiB -> 8 pages) make the
// teardown charge sequence order-sensitive, and writers hammering both
// channels across the forced restart turn any stop-order variation into
// divergent errno/latency counters.
func restartTeardownDump(t *testing.T) string {
	t.Helper()
	m, err := paradice.New(paradice.Config{
		MapCache: true,
		Supervise: &supervise.Config{
			HeartbeatEvery: sim.Millisecond,
			BackoffBase:    sim.Millisecond,
			BackoffCap:     2 * sim.Millisecond,
			MaxRestarts:    2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sinkA := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
	sinkB := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		k.RegisterDevice(teardownPathA, sinkA, sinkA)
		k.RegisterDevice(teardownPathB, sinkB, sinkB)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(teardownPathA, teardownPathB); err != nil {
		t.Fatal(err)
	}
	// Short deadline: writers caught in-flight by the teardown recycle within
	// a millisecond instead of parking for the supervised 50 ms, so the
	// channels keep offering fresh requests throughout the window.
	for _, fe := range g.Frontends {
		fe.SetDeadline(sim.Millisecond)
	}

	tr := m.StartTrace()

	// Every heartbeat ack is swallowed: the watchdog sees a wedged driver VM
	// with both backends alive and their map caches warm, and restarts it —
	// exactly the teardown-under-load window the stop loop runs in.
	plan := faults.New(1).Probability("cvd.heartbeat.drop", 1.0)
	faults.Install(m.Env, plan)
	defer faults.Uninstall(m.Env)

	// Four staggered writers per channel: at any instant some are mid-pacing
	// sleep, so fresh posts land inside the (microseconds-wide) teardown
	// window no matter where the in-flight ones are parked.
	for _, ch := range []struct {
		name string
		path string
		size int
	}{
		{"writerA", teardownPathA, 8 << 10},
		{"writerB", teardownPathB, 32 << 10},
	} {
		ch := ch
		p, err := g.NewProcess(ch.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			offset := sim.Duration(i) * 700 * sim.Nanosecond
			p.SpawnTask(fmt.Sprintf("w%d", i), func(tk *kernel.Task) {
				buf, _ := p.Alloc(ch.size)
				tk.Sim().Sleep(offset)
				end := tk.Sim().Now().Add(40 * sim.Millisecond)
				fd := -1
				for tk.Sim().Now() < end {
					if fd < 0 {
						f, err := tk.Open(ch.path, devfile.ORdWr)
						if err != nil {
							// EBUSY/EREMOTE/etc.: pace and retry — fds die
							// with each driver-VM generation.
							tk.Sim().Sleep(5 * sim.Microsecond)
							continue
						}
						fd = f
					}
					if _, err := tk.Write(fd, buf, ch.size); err != nil {
						if kernel.IsErrno(err, kernel.EREMOTE) || kernel.IsErrno(err, kernel.ENODEV) ||
							kernel.IsErrno(err, kernel.ETIMEDOUT) {
							tk.Close(fd)
							fd = -1
						}
						tk.Sim().Sleep(5 * sim.Microsecond)
						continue
					}
					tk.Sim().Sleep(sim.Microsecond)
				}
				if fd >= 0 {
					tk.Close(fd)
				}
			})
		}
	}

	m.RunUntil(m.Env.Now().Add(60 * sim.Millisecond))
	m.StopTrace()
	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// quietGuestP99 runs a quiet guest's periodic workload against the worker
// pool — alone, or sharing the pool with a hot guest at open-loop overload —
// and returns the quiet guest's p99 latency.
func quietGuestP99(t *testing.T, withHot bool) sim.Duration {
	t.Helper()
	m, err := paradice.New(paradice.Config{
		Mode:    paradice.Polling,
		Workers: 2, // small pool: the hot guest WOULD monopolize it without round-robin
	})
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
	quiet, err := m.AddGuest("quiet", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := quiet.Paravirtualize(load.SinkPath); err != nil {
		t.Fatal(err)
	}
	quietGen, err := load.NewGenerator(load.Profile{
		Path:     load.SinkPath,
		Classes:  []load.Class{{Name: "quiet", Size: 64, Weight: 1}},
		Arrival:  load.Poisson,
		Rate:     4_000,
		Clients:  4,
		Duration: 30 * sim.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withHot {
		hot, err := m.AddGuest("hot", paradice.Linux)
		if err != nil {
			t.Fatal(err)
		}
		if err := hot.Paravirtualize(load.SinkPath); err != nil {
			t.Fatal(err)
		}
		hotGen, err := load.NewGenerator(load.Profile{
			Path:     load.SinkPath,
			Classes:  []load.Class{{Name: "hot", Size: 64, Weight: 1}},
			Arrival:  load.Poisson,
			Rate:     400_000, // far past the 2-worker sink capacity
			Clients:  100,
			Duration: 30 * sim.Millisecond,
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := hotGen.Start(hot.K); err != nil {
			t.Fatal(err)
		}
	}
	if err := quietGen.Start(quiet.K); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(m.Env.Now().Add(200 * sim.Millisecond))
	res := quietGen.Result()
	if res.OK() == 0 {
		t.Fatal("quiet guest completed no requests")
	}
	return res.Classes[0].Lat.Quantile(0.99)
}

// TestPoolFairnessQuietGuestP99 is the scale-out isolation property: a
// guest flooding the shared worker pool at open-loop overload must not move
// a quiet guest's p99 beyond a bounded factor — round-robin caps the hot
// channel at its round share, so the quiet guest waits at most one round,
// not the hot backlog.
func TestPoolFairnessQuietGuestP99(t *testing.T) {
	alone := quietGuestP99(t, false)
	contended := quietGuestP99(t, true)
	t.Logf("quiet p99 alone = %v, under hot-guest overload = %v (x%.2f)",
		alone, contended, float64(contended)/float64(alone))
	// The bound: one round of the pool ahead of every quiet operation,
	// plus scheduler noise. Without round-robin (FIFO through a shared
	// queue) the quiet p99 rides the hot backlog and blows past this by
	// orders of magnitude.
	if contended > 10*alone {
		t.Fatalf("quiet guest p99 %v is more than 10x its uncontended %v — pool fairness broken",
			contended, alone)
	}
}

// TestShardRestartIsolation: on a sharded machine, restarting or handing
// over one shard is invisible to channels served by the others — shard 0's
// file descriptors keep working THROUGH shard 1's lifecycle operation. A
// restart gives shard 1's channels the usual crash-restart contract
// (EREMOTE, reopen, resume); a planned handover keeps them serving with no
// errno and no reopen.
//
// Each case also pins how often its entry point consults its fault point: a
// restart once per call, a handover once per shard. A change to these counts
// would silently reshuffle the stress harness's fault schedules. The
// whole-machine cases cycle shard 0 too.
func TestShardRestartIsolation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cycle   func(*paradice.Machine) error
		planned bool
		point   string
		hits    int
		all     bool
	}{
		{"restart", func(m *paradice.Machine) error { return m.RestartDriverShard(1) }, false, "machine.restart.fail", 1, false},
		{"handover", func(m *paradice.Machine) error { return m.HandoverDriverShard(1) }, true, "machine.handover.fail", 1, false},
		{"restart-vm", (*paradice.Machine).RestartDriverVM, false, "machine.restart.fail", 1, true},
		{"handover-vm", (*paradice.Machine).HandoverDriverVM, true, "machine.handover.fail", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := paradice.New(paradice.Config{
				Mode:         paradice.Polling,
				DriverShards: 2,
				Workers:      2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(m.Shards()); got != 2 {
				t.Fatalf("shards = %d, want 2", got)
			}
			sink0 := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
			sink1 := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
			if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
				k.RegisterDevice("/dev/shard0dev", sink0, sink0)
				k.RegisterDevice("/dev/shard1dev", sink1, sink1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := m.PinDevice("/dev/shard0dev", 0); err != nil {
				t.Fatal(err)
			}
			if err := m.PinDevice("/dev/shard1dev", 1); err != nil {
				t.Fatal(err)
			}
			g, err := m.AddGuest("guest", paradice.Linux)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Paravirtualize("/dev/shard0dev", "/dev/shard1dev"); err != nil {
				t.Fatal(err)
			}
			if m.ShardFor("/dev/shard0dev").Index != 0 || m.ShardFor("/dev/shard1dev").Index != 1 {
				t.Fatal("pins did not route the devices to their shards")
			}

			vm0, vm1 := m.Shards()[0].VM, m.Shards()[1].VM
			var fd0, fd1 int
			var err0a, err1a, err1b, err0b, errReopen error
			phase := 0
			p, _ := g.NewProcess("app")
			p.SpawnTask("main", func(tk *kernel.Task) {
				buf, _ := p.Alloc(64)
				fd0, err0a = tk.Open("/dev/shard0dev", devfile.ORdWr)
				if err0a != nil {
					return
				}
				fd1, err1a = tk.Open("/dev/shard1dev", devfile.ORdWr)
				if err1a != nil {
					return
				}
				if _, err := tk.Write(fd0, buf, 64); err != nil {
					err0a = err
					return
				}
				if _, err := tk.Write(fd1, buf, 64); err != nil {
					err1a = err
					return
				}
				phase = 1
				// Park until the host context has cycled shard 1.
				for phase == 1 {
					tk.Sim().Sleep(sim.Millisecond)
				}
				// Shard 0's fd survives shard 1's lifecycle operation untouched.
				_, err0b = tk.Write(fd0, buf, 64)
				// Shard 1's fd is stale after a restart, live after a handover.
				_, err1b = tk.Write(fd1, buf, 64)
				if !tc.planned {
					// The §8 contract: reopen and resume.
					fd, err := tk.Open("/dev/shard1dev", devfile.ORdWr)
					if err != nil {
						errReopen = err
						return
					}
					_, errReopen = tk.Write(fd, buf, 64)
				}
				phase = 3
			})

			m.RunUntil(m.Env.Now().Add(20 * sim.Millisecond))
			if phase != 1 {
				t.Fatalf("setup phase did not complete: open0=%v open1=%v", err0a, err1a)
			}
			plan := faults.New(1)
			faults.Install(m.Env, plan)
			err = tc.cycle(m)
			faults.Uninstall(m.Env)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Hits(tc.point); got != tc.hits {
				t.Fatalf("%s consulted %s %d times, want %d", tc.name, tc.point, got, tc.hits)
			}
			if replaced := m.Shards()[0].VM != vm0; replaced != tc.all {
				t.Fatalf("%s replaced shard 0's driver VM: %v, want %v", tc.name, replaced, tc.all)
			}
			if m.Shards()[1].VM == vm1 {
				t.Fatalf("%s of shard 1 kept its predecessor driver VM", tc.name)
			}
			phase = 2
			m.RunUntil(m.Env.Now().Add(200 * sim.Millisecond))
			if phase != 3 {
				t.Fatalf("post-%s phase did not complete", tc.name)
			}
			if err0b != nil && !(tc.all && !tc.planned) {
				t.Fatalf("shard 0 write after shard 1 %s: %v, want success (isolation)", tc.name, err0b)
			}
			cycled := 1
			if tc.all {
				cycled = 2
			}
			if tc.planned {
				// The planned-handover contract: the pre-handover fd keeps
				// serving on the successor, no errno, no reopen.
				if err1b != nil {
					t.Fatalf("shard 1 write on the pre-handover fd: %v, want success", err1b)
				}
				if got := m.Handovers(); len(got) != cycled || got[0].Aborted || got[cycled-1].Aborted {
					t.Fatalf("handover episodes = %+v, want %d committed", got, cycled)
				}
			} else {
				if err1b == nil {
					t.Fatal("shard 1 write on a pre-restart fd succeeded, want an honest errno")
				}
				// The §8 stale-fd contract (usrlib.IsStaleDevice): EREMOTE for
				// an operation the dead backend never answered, EINVAL for an
				// fd the successor has no file state for.
				if !kernel.IsErrno(err1b, kernel.EREMOTE) && !kernel.IsErrno(err1b, kernel.EINVAL) &&
					!kernel.IsErrno(err1b, kernel.ENODEV) {
					t.Fatalf("shard 1 stale-fd write: %v, want EREMOTE/EINVAL/ENODEV", err1b)
				}
				if errReopen != nil {
					t.Fatalf("shard 1 reopen+write after restart: %v, want success", errReopen)
				}
			}
			if m.RestartEpoch() != uint64(cycled) {
				t.Fatalf("restart epoch = %d, want %d", m.RestartEpoch(), cycled)
			}
		})
	}
}

// TestRestartTeardownDeterministic requires the whole restart-under-load
// scenario — teardown charge sequence, in-flight failure classification,
// per-channel errno counters — to be byte-identical across repeated runs.
// Before the sortedPaths fix in RestartDriverVM's stop loop this diverged
// with probability ~1 - 2^-(runs-1) per attempt (two channels, random map
// order per run).
func TestRestartTeardownDeterministic(t *testing.T) {
	want := restartTeardownDump(t)
	for i := 1; i < 8; i++ {
		got := restartTeardownDump(t)
		if got != want {
			wl := bytes.Split([]byte(want), []byte("\n"))
			gl := bytes.Split([]byte(got), []byte("\n"))
			for j := 0; j < len(wl) && j < len(gl); j++ {
				if !bytes.Equal(wl[j], gl[j]) {
					t.Fatalf("run %d metrics dump diverged at line %d:\n  run 0: %s\n  run %d: %s",
						i, j+1, wl[j], i, gl[j])
				}
			}
			t.Fatalf("run %d metrics dump diverged in length: %d vs %d lines", i, len(wl), len(gl))
		}
	}
}

// Driver-VM routing is pins alone: on a 2-shard machine a harness device
// nobody pinned is served by shard 0, the paper's single driver VM, and
// PinDevice moves a device to shard 1. A pin outside the machine's shards
// is refused.
func TestShardRoutingPinsOnly(t *testing.T) {
	const unpinned, pinned = "/dev/unpinned", "/dev/pinned"
	m, err := paradice.New(paradice.Config{DriverShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		for _, path := range []string{unpinned, pinned} {
			sink := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
			k.RegisterDevice(path, sink, sink)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{-1, 2} {
		if err := m.PinDevice(pinned, shard); err == nil {
			t.Fatalf("PinDevice(%q, %d) accepted on a 2-shard machine", pinned, shard)
		}
	}
	if err := m.PinDevice(pinned, 1); err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(unpinned, pinned); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{unpinned: 0, pinned: 1} {
		if got := m.ShardFor(path).Index; got != want {
			t.Errorf("ShardFor(%q) = shard %d, want %d", path, got, want)
		}
		if k := g.Backends[path].Proc().K; k != m.Shards()[want].K {
			t.Errorf("%s is served by driver kernel %s, want shard %d's %s", path, k.Name, want, m.Shards()[want].K.Name)
		}
	}
}
