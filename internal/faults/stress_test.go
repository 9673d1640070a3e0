package faults_test

// The seeded randomized stress harness of the fault-injection layer: each
// seed builds a full deployment through the public API — paradice.New, a
// guest VM from AddGuest, the stress device installed in every driver-VM
// generation by OnDriverVMBoot, one paravirtualized device file — arms a
// randomized fault plan, and runs a randomized guest workload through the
// device-file boundary while faults fire. It recovers only through the
// Machine's own lifecycle calls: Config.Supervise heals under fire, the
// handover arm migrates with HandoverDriverVM (RequestHandover on a
// supervised seed), and if anything is still blocked once the fault window
// closes, RestartDriverVM performs the §8 recovery. The invariants that
// must survive ANY fault schedule:
//
//   - liveness: every guest task eventually unblocks;
//   - honest errors: whatever a task observed is a real errno, never a
//     Go-level failure leaking across the VM boundary;
//   - isolation: guest memory the guest never granted (the canary) is
//     byte-identical after the run, even though the driver of every
//     driver-VM generation was actively trying to scribble on it
//     ("driver.evil");
//   - no process panic, including one a supervisor absorbed as a driver
//     oops;
//   - monotone virtual clock;
//   - honest handover episodes and an honest load generator.
//
// Every 4th seed additionally arms one optional subsystem (driver-VM
// supervision, the bulk-transfer fast path, the translation caches, or the
// open-loop load generator — residues 3/1/2/0; -stress.arms=<arm> forces
// one everywhere), so injected faults land on each feature in a quarter of
// the sweep without losing the plain-configuration coverage. The flight
// recorder rides the open-loop residue (or every seed with
// -stress.arms=flightrec): its digests, attribution, and outlier captures
// are part of the byte-identical replay contract, and on invariant failure
// a forensics replay writes them to a temp artifact directory. The arm
// table (stressArms) holds every arming rule, and
// TestStressArmsReachTheirPaths checks that each arm reaches what it arms.
//
// With -stress.arms=multivm, every seed additionally hosts two extra guest
// VMs — own kernels, own processes, own ungranted canaries — whose channels
// share the driver VM with the main guest; their workloads are rng-free
// functions of the seed, so the arm never perturbs the base run's fault
// schedule, and the isolation invariants become per-guest.
//
// On failure the reproducing seed is printed; re-run with
// -stress.seed=<seed> (and the same -stress.arms) to replay the exact
// simulation.

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	"paradice/internal/trace"
)

var (
	stressSeeds = flag.Int("stress.seeds", 1000, "number of seeds TestStressSeeded sweeps")
	stressSeed  = flag.Int64("stress.seed", -1, "replay a single stress seed (reproduction)")
	forcedArms  = armSet{}
)

func init() {
	flag.Func("stress.arms", "comma-separated stress arms to force ("+armNames()+")", forcedArms.force)
}

// stressArm is one optional subsystem a seed can run with. armed reports
// whether seed runs with it, given whether -stress.arms forced it. Arming
// is a function of the seed alone, so -stress.seed replay stays exact.
type stressArm struct {
	name  string
	armed func(seed int64, forced bool) bool
}

// everyFourth arms on the seeds of one residue mod 4, or on every seed when
// forced.
func everyFourth(residue int64) func(int64, bool) bool {
	return func(seed int64, forced bool) bool { return forced || seed%4 == residue }
}

// dormant arms on every seed when forced and on none otherwise, so the
// default sweep (and its byte-identical trace exports) is untouched.
func dormant(_ int64, forced bool) bool { return forced }

// stressArms is the arm table: what each arm does is in runOne, when it is
// armed is here. The four residue arms put one subsystem on every 4th seed
// of the default sweep, each on its own residue so that forcing one crosses
// it with the other three. The flight recorder rides the open-loop residue.
// The planned handover, when forced, also takes the open-loop residue, so
// its quiesce stage drains a ring the generator keeps refilling.
var stressArms = []stressArm{
	{"supervised", everyFourth(3)},
	{"fastpath", everyFourth(1)},
	{"walkcache", everyFourth(2)},
	{"openloop", everyFourth(0)},
	{"flightrec", everyFourth(0)},
	{"handover", func(seed int64, forced bool) bool { return forced && seed%4 == 0 }},
	{"adaptive", dormant},
	{"multivm", dormant},
}

// armNames lists the table's arm names, comma-separated.
func armNames() string {
	names := make([]string, len(stressArms))
	for i, a := range stressArms {
		names[i] = a.name
	}
	return strings.Join(names, ",")
}

// armSet is a set of arm names.
type armSet map[string]bool

// force adds each comma-separated arm name to s. A name the table does not
// have fails the run rather than being silently ignored.
func (s armSet) force(list string) error {
	for _, name := range strings.Split(list, ",") {
		if !slices.ContainsFunc(stressArms, func(a stressArm) bool { return a.name == name }) {
			return fmt.Errorf("unknown stress arm %q (have %s)", name, armNames())
		}
		s[name] = true
	}
	return nil
}

// armedArms resolves the arm table for one seed under the forced set.
func armedArms(seed int64, forced armSet) armSet {
	on := armSet{}
	for _, a := range stressArms {
		if a.armed(seed, forced[a.name]) {
			on[a.name] = true
		}
	}
	return on
}

const (
	stressPath = "/dev/stressdev"
	// vmRAM is each guest VM's memory.
	vmRAM = 4 << 20
	// driverVMRAM is what each driver VM a Machine boots takes from host RAM.
	driverVMRAM = 64 << 20
	// chanDeadline is the per-request deadline of every channel that relies
	// on deadlines to stay live under fire: the sink's and the extra
	// guests', which phase 2 only restarts when the main tasks are stuck,
	// and on a supervised seed the stress channel's.
	chanDeadline = 5 * sim.Millisecond
)

// The supervised arm's watchdog: 2 ms heartbeats and a three-restart
// budget on a short backoff, so a seed can climb the whole schedule to
// degraded mode inside its run.
const (
	backoffCap  = 8 * sim.Millisecond
	maxRestarts = 3
)

var stressSupervise = supervise.Config{
	HeartbeatEvery: 2 * sim.Millisecond,
	BackoffBase:    sim.Millisecond,
	BackoffCap:     backoffCap,
	MaxRestarts:    maxRestarts,
	StableAfter:    20 * sim.Millisecond,
}

// A seed's timeline, sized from the recovery costs. Phase 1 is the fault
// window: 50 ms is far beyond what the workload needs when nothing is
// stuck. A handover seed starts its workload handoverLead before the
// successor's perf.CostDriverVMRestart boot ends, so the drain lands in the
// open-loop flood. A supervised seed extends phase 1 by its supervisor's
// whole restart budget, each attempt at most healAttempt, so a recovery
// begun in the fault window plays out under fire; it then stops the
// supervisor and settles for one more healAttempt, the longest a stopped
// watchdog can still be rebooting, so phase 2's RestartDriverVM never meets
// ErrRestartInProgress.
const (
	faultWindow  = 50 * sim.Millisecond
	handoverLead = 200 * sim.Microsecond
	// healAttempt is one restart attempt: the capped backoff, the reboot,
	// and the sweep that verifies it (a few channels × the 200 µs default
	// heartbeat timeout).
	healAttempt = backoffCap + perf.CostDriverVMRestart + sim.Millisecond
	// longestRun is when the latest seed's phase 1 ends, settle included.
	longestRun = perf.CostDriverVMRestart - handoverLead + faultWindow + (maxRestarts+1)*healAttempt
)

// hostRAM holds every driver VM one seed can boot, plus the guests (three
// at most). A replaced driver VM keeps its memory because the hypervisor
// has no DestroyVM; once it has one, drop this and take the Machine's
// default. Two boots are fixed, the first driver VM and phase 2's restart.
// Every other one, a supervised restart or a handover successor, holds a
// process for perf.CostDriverVMRestart, so there are at most
// longestRun/CostDriverVMRestart = 5 more: 7 driver VMs in all.
const hostRAM = (2+uint64(longestRun/perf.CostDriverVMRestart))*driverVMRAM + 3*vmRAM

var (
	sdNoop = devfile.IO('S', 0)
	sdXor  = devfile.IOWR('S', 1, 32)
)

// stressDriver is the device driver in the driver VM: a byte store with
// read/write/ioctl/mmap, plus a compromised-driver probe — when the
// "driver.evil" point fires during a write, it attempts a copy the guest
// never declared, aimed at the harness's canary.
type stressDriver struct {
	kernel.BaseOps
	env    *sim.Env
	wq     *kernel.WaitQueue
	pages  []mem.GuestPhys
	data   []byte
	evilVA mem.GuestVirt

	evilAllowed int // undeclared copies the hypervisor let through (violations)
	evilDenied  int // undeclared copies the grant check stopped
}

func (d *stressDriver) Read(c *kernel.FopCtx, dst mem.GuestVirt, n int) (int, error) {
	for len(d.data) == 0 {
		if c.File.Nonblock() {
			return 0, kernel.EAGAIN
		}
		d.wq.Wait(c.Task)
	}
	if n > len(d.data) {
		n = len(d.data)
	}
	chunk := d.data[:n]
	d.data = d.data[n:]
	if err := kernel.CopyToUser(c, dst, chunk); err != nil {
		return 0, err
	}
	return n, nil
}

func (d *stressDriver) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	buf := make([]byte, n)
	if err := kernel.CopyFromUser(c, src, buf); err != nil {
		return 0, err
	}
	if faults.Point(d.env, "driver.evil") != nil && d.evilVA != 0 {
		// The compromised-driver probe: this operation's grant covers only
		// the write's source range, so a strict hypervisor must refuse this.
		if err := kernel.CopyToUser(c, d.evilVA, []byte("pwnpwnpwn")); err != nil {
			d.evilDenied++
		} else {
			d.evilAllowed++
		}
	}
	d.data = append(d.data, buf...)
	d.wq.Wake()
	return n, nil
}

func (d *stressDriver) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	switch cmd {
	case sdNoop:
		return 0, nil
	case sdXor:
		buf := make([]byte, 32)
		if err := kernel.CopyFromUser(c, arg, buf); err != nil {
			return 0, err
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if err := kernel.CopyToUser(c, arg, buf); err != nil {
			return 0, err
		}
		return 0, nil
	}
	return 0, kernel.ENOTTY
}

func (d *stressDriver) Mmap(c *kernel.FopCtx, v *kernel.VMA) error {
	if v.Len > uint64(len(d.pages))*mem.PageSize {
		return kernel.EINVAL
	}
	return nil
}

func (d *stressDriver) Fault(c *kernel.FopCtx, v *kernel.VMA, va mem.GuestVirt) error {
	idx := (uint64(va) - uint64(v.Start)) / mem.PageSize
	if idx >= uint64(len(d.pages)) {
		return kernel.EFAULT
	}
	return kernel.InsertPFN(c, va, d.pages[idx])
}

func newStressDriver(k *kernel.Kernel, evilVA mem.GuestVirt) (*stressDriver, error) {
	d := &stressDriver{env: k.Env, wq: k.NewWaitQueue(), evilVA: evilVA}
	for i := 0; i < 2; i++ {
		pg, err := k.AllocFrame()
		if err != nil {
			return nil, err
		}
		d.pages = append(d.pages, pg)
	}
	k.RegisterDevice(stressPath, d, d)
	return d, nil
}

// isErrnoOrNil reports whether a task-visible error is an honest errno (or
// no error at all) — the only outcomes a fault schedule is allowed to
// produce at the syscall boundary.
func isErrnoOrNil(err error) bool {
	if err == nil {
		return true
	}
	var e kernel.Errno
	return errors.As(err, &e)
}

type stressOp int

const (
	opWrite stressOp = iota
	opRead
	opXor
	opNoop
	opMmapCycle
	opKinds
)

// stressTask is the record of one guest task of the workload.
type stressTask struct {
	done bool  // returned from every system call
	viol error // the non-errno failure that ended it, if any
	ok   int   // operations that succeeded
}

// spawnStressTask allocates a task's buffers in app and spawns it: it opens
// the stress device, issues ops, and closes it. When the driver VM restarts
// under it (EREMOTE, EINVAL) or a request outlives its deadline
// (ETIMEDOUT), the fd is stale, exactly as §8 describes: it reopens and
// carries on.
func spawnStressTask(app *kernel.Process, name, payload string, ops []stressOp) (*stressTask, error) {
	wbuf := []byte(payload)
	wVA, err := app.AllocBytes(wbuf)
	if err != nil {
		return nil, err
	}
	rVA, err := app.Alloc(64)
	if err != nil {
		return nil, err
	}
	xVA, err := app.AllocBytes(make([]byte, 32))
	if err != nil {
		return nil, err
	}
	st := &stressTask{}
	app.SpawnTask(name, func(tk *kernel.Task) {
		flags := devfile.ORdWr | devfile.ONonblock
		fd, err := tk.Open(stressPath, flags)
		if err != nil {
			if !isErrnoOrNil(err) {
				st.viol = fmt.Errorf("open leaked non-errno error: %w", err)
			}
			st.done = true
			return
		}
		for _, op := range ops {
			var err error
			switch op {
			case opWrite:
				_, err = tk.Write(fd, wVA, len(wbuf))
			case opRead:
				_, err = tk.Read(fd, rVA, 64)
			case opXor:
				_, err = tk.Ioctl(fd, sdXor, xVA)
			case opNoop:
				_, err = tk.Ioctl(fd, sdNoop, 0)
			case opMmapCycle:
				var va mem.GuestVirt
				va, err = tk.Mmap(fd, mem.PageSize, 0)
				if err == nil {
					// Touching may fail under injected map faults; the
					// invariant is only that it neither panics nor hangs.
					var b [4]byte
					_ = app.UserRead(tk, va, b[:])
					_ = tk.Munmap(va, mem.PageSize)
				}
			}
			if err == nil {
				st.ok++
				continue
			}
			if !isErrnoOrNil(err) {
				st.viol = fmt.Errorf("op %d leaked non-errno error: %w", op, err)
				break
			}
			if kernel.IsErrno(err, kernel.EREMOTE) || kernel.IsErrno(err, kernel.EINVAL) ||
				kernel.IsErrno(err, kernel.ETIMEDOUT) {
				if fd2, err2 := tk.Open(stressPath, flags); err2 == nil {
					fd = fd2
				} else if !isErrnoOrNil(err2) {
					st.viol = fmt.Errorf("reopen leaked non-errno error: %w", err2)
					break
				}
			}
		}
		if err := tk.Close(fd); err != nil && !isErrnoOrNil(err) {
			st.viol = fmt.Errorf("close leaked non-errno error: %w", err)
		}
		st.done = true
	})
	return st, nil
}

// stillBlocked counts the tasks that have not returned.
func stillBlocked(tasks []*stressTask) int {
	n := 0
	for _, st := range tasks {
		if !st.done {
			n++
		}
	}
	return n
}

// traceCapture, when passed to runOne, runs the whole simulation under the
// observability layer and receives its exported Chrome trace, metrics dump,
// and flight-recorder dump — the byte strings the determinism invariant
// compares across replays. forceFlight arms the flight recorder regardless
// of the seed's residue (the recorder is a pure observer — arming it never
// advances the virtual clock — so a forensics replay stays exact).
type traceCapture struct {
	trace       []byte
	metrics     []byte
	flight      []byte
	forceFlight bool
}

// seedOutcome, when passed to runOne, receives the two outcomes of a seed
// no counter records. It arms no observer.
type seedOutcome struct {
	offered  uint64 // arrivals the open-loop generator scheduled
	xguestOK int    // operations the extra guests completed
}

// runOne executes one seeded stress simulation with the arms the table
// gives seed under forced, and returns nil if every invariant held. With
// weaken set, the run instead arms nothing but the deliberately broken
// grant check ("grant.validate.skip") plus one scripted evil driver copy —
// the harness must then DETECT the isolation violation and return an error
// naming the canary; that self-test is what makes the green runs
// trustworthy.
func runOne(seed int64, forced armSet, weaken bool, cap *traceCapture, out *seedOutcome) (retErr error) {
	plan := faults.New(seed)
	rng := plan.Rand()

	// The weakened run arms nothing: its point is the evil copy slipping
	// past a broken grant check, which every arm would obscure.
	arms := armSet{}
	if !weaken {
		arms = armedArms(seed, forced)
	}

	// The supervised arm runs the Machine's driver-VM supervisor: deaths
	// the plan injects are healed automatically, under fire, while the
	// workload keeps issuing operations.
	supervised := arms["supervised"]

	// The fastpath arm enables the bulk-transfer fast path: the grant-map
	// cache, which serves the tiny stress read/write payloads like any
	// other, plus doorbell coalescing in interrupt mode. The isolation
	// invariants below (canary, honest errnos, liveness) must hold with
	// cached mappings and batched doorbells exactly as they do on the
	// per-request assisted-copy path.
	fastpath := arms["fastpath"]

	// The walkcache arm enables the translation caches: the hypervisor's
	// software TLB plus batched grant hypercalls. Injected faults land on
	// warm caches here — a denied validation, a dropped copy, or a mid-burst
	// driver death must behave identically whether the translation was
	// walked or cached, and the canary stays untouchable either way.
	walkcache := arms["walkcache"]

	// The openloop arm starts the open-loop load generator: a second
	// paravirtualized device (the load sink) shares the same guest and
	// driver VMs, and a seeded open-loop client mix — two QoS classes, the
	// bulk class admission-limited so that a backed-up ring sheds it —
	// floods it while the fault plan fires on both channels. Its per-request
	// deadline must keep the generator's clients live when the plan kills
	// that backend (phase 2 only restarts when the main tasks are stuck),
	// and every outcome the clients observe must still be an honest errno.
	openloop := arms["openloop"]

	// The flightrec arm (or a forensics replay) arms the flight recorder:
	// always-on digests over the very runs that flood the ring, with the
	// injected errnos, sheds, and restart episodes landing as tail-based
	// outlier captures. On a plain sweep (no traceCapture) a retention-free
	// tracer carries the digests so a flood stays O(ring capacity); a
	// capturing run reuses its full tracer, and the dump joins the
	// byte-identical replay contract.
	flightrec := !weaken && (arms["flightrec"] || (cap != nil && cap.forceFlight))

	// The handover arm performs a planned driver-VM handover of every
	// channel mid-run, with the handover's own fault points armed so the
	// sweep exercises every abort path.
	handoverArmed := arms["handover"]

	// The multivm arm: two extra guest VMs join the deployment, each with
	// its own kernel, process, ungranted canary, and CVD channel to the same
	// stress device in the shared driver VM. Their workloads are derived
	// from the seed by plain arithmetic, not the plan's rng, so arming it
	// changes NOTHING in the base run's random sequence — the same seed
	// produces the same fault schedule with or without the extra guests.
	// The invariants become per-guest: every extra guest's tasks stay live
	// (on per-request deadlines, or phase 2's restart), they observe only
	// honest errnos, and each guest's canary — memory no operation from ANY
	// guest ever granted — is byte-identical after the run, however the
	// shared driver VM died, restarted, or scribbled.
	multivm := arms["multivm"]

	// The mode is the seed's first random draw, before anything is built.
	// The adaptive arm overrides it AFTER the draw, so the rest of the
	// seed's random sequence — and thus its fault schedule — is identical to
	// the static-mode run of the same seed.
	cfg := paradice.Config{HostRAM: hostRAM, GuestRAM: vmRAM, Mode: paradice.Interrupts}
	if !weaken && rng.Intn(2) == 1 {
		cfg.Mode = paradice.Polling
	}
	if arms["adaptive"] {
		// Batching rides the adaptive arm: multi-entry submission doorbells
		// and shared response IRQs under every fault the plan can throw.
		cfg.Mode = paradice.Adaptive
		cfg.CoalesceWindow = 20 * sim.Microsecond
	}
	if fastpath {
		cfg.MapCache = true
		cfg.CoalesceWindow = 20 * sim.Microsecond
	}
	cfg.TLB = walkcache
	if openloop {
		// The eight clients keep at most eight requests in flight, plus the
		// slots their timed-out requests abandon, so at 6 the bulk class is
		// shed whenever the sink's ring backs up. The stress tasks and the
		// rt class run at QoS 0, which the limit leaves alone.
		cfg.Admission = map[uint8]int{2: 6}
	}
	if supervised {
		cfg.Supervise = &stressSupervise
	}
	m, err := paradice.New(cfg)
	if err != nil {
		return err
	}
	env := m.Env
	defer m.Close()
	defer func() {
		if r := recover(); r != nil {
			// A sim process panicking anywhere (backend included) is itself
			// an invariant violation; sim traps it to this goroutine, and
			// FaultStack keeps the panic site when it was a process's.
			retErr = fmt.Errorf("invariant: simulation panicked: %v\n%s", r, env.FaultStack())
		}
	}()
	// A supervised Machine absorbs a panic on a CVD backend process as a
	// driver oops and heals it. The seed still fails on it: no driver this
	// harness installs may panic.
	var absorbed []*sim.ProcPanic
	if absorb := env.OnProcPanic; absorb != nil {
		env.OnProcPanic = func(pp *sim.ProcPanic) bool {
			absorbed = append(absorbed, pp)
			return absorb(pp)
		}
	}

	var fr *trace.FlightRecorder
	if cap != nil {
		tr := m.StartTrace()
		defer func() {
			var tb, mb bytes.Buffer
			if err := tr.WriteChrome(&tb); err != nil && retErr == nil {
				retErr = err
			}
			if err := tr.WriteMetrics(&mb); err != nil && retErr == nil {
				retErr = err
			}
			cap.trace, cap.metrics = tb.Bytes(), mb.Bytes()
			if fr != nil {
				var fb bytes.Buffer
				if err := fr.WriteDump(&fb); err != nil && retErr == nil {
					retErr = err
				}
				cap.flight = fb.Bytes()
			}
		}()
	}
	if flightrec {
		tr := m.Tracer()
		if tr == nil {
			tr = m.StartTrace()
			tr.SetEventRetention(false)
		}
		fr = tr.ArmFlightRecorder(trace.FlightConfig{
			Threshold: 2 * sim.Millisecond,
		})
	}

	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		return err
	}
	app, err := g.NewProcess("stress-app")
	if err != nil {
		return err
	}
	// The canary: guest process memory no operation ever declares a grant
	// for. Whatever faults fire, the driver VM must not be able to touch it.
	canary := []byte("grant-table-protected-canary-42!")
	canaryVA, err := app.AllocBytes(canary)
	if err != nil {
		return err
	}
	// Every driver-VM generation — the first, each restart replacement,
	// each handover successor — gets its own stress driver, and the plan
	// attacks them all; drivers keeps every one for the evil-probe totals.
	var drivers []*stressDriver
	var sink *load.Sink
	if openloop {
		sink = load.NewSink(env, 2*sim.Microsecond, sim.Microsecond)
	}
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		d, err := newStressDriver(k, canaryVA)
		if err != nil {
			return err
		}
		drivers = append(drivers, d)
		if sink != nil {
			k.RegisterDevice(load.SinkPath, sink, sink)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := g.Paravirtualize(stressPath); err != nil {
		return err
	}
	if supervised {
		// A stress task stuck behind a dead backend unblocks with ETIMEDOUT
		// well inside the fault window.
		g.Frontends[stressPath].SetDeadline(chanDeadline)
	}

	var gen *load.Generator
	if openloop {
		if err := g.Paravirtualize(load.SinkPath); err != nil {
			return err
		}
		g.Frontends[load.SinkPath].SetDeadline(chanDeadline)
		arr := load.Poisson
		if rng.Intn(2) == 1 {
			arr = load.Bursty
		}
		gen, err = load.NewGenerator(load.Profile{
			Path: load.SinkPath,
			Classes: []load.Class{
				{Name: "rt", QoS: 0, Size: 128, Weight: 1},
				{Name: "bulk", QoS: 2, Size: 1024, Weight: 2},
			},
			Arrival:  arr,
			Rate:     40_000,
			Clients:  8,
			Duration: 4 * sim.Millisecond,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
	}

	// The extra guests of the multi-VM arm. Setup consumes no rng: workload
	// shapes are pure arithmetic on (seed, guest, task, op), so reproduction
	// by seed is exact under the arm too.
	type xguest struct {
		app      *kernel.Process
		canary   []byte
		canaryVA mem.GuestVirt
		tasks    []*stressTask
	}
	var xguests []*xguest
	if multivm {
		for gi := 0; gi < 2; gi++ {
			xg, err := m.AddGuest(fmt.Sprintf("guest-x%d", gi), paradice.Linux)
			if err != nil {
				return err
			}
			if err := xg.Paravirtualize(stressPath); err != nil {
				return err
			}
			xg.Frontends[stressPath].SetDeadline(chanDeadline)
			xapp, err := xg.NewProcess(xg.K.Name + "-app")
			if err != nil {
				return err
			}
			xc := []byte(fmt.Sprintf("multi-guest-canary-%02d-intact!!", gi))
			xcVA, err := xapp.AllocBytes(xc)
			if err != nil {
				return err
			}
			xguests = append(xguests, &xguest{app: xapp, canary: xc, canaryVA: xcVA})
		}
	}

	// Arm the plan. The weakened run keeps everything else quiet so the one
	// evil copy demonstrably slips through the broken check.
	if weaken {
		plan.Probability("grant.validate.skip", 1.0)
		plan.FailAt("driver.evil", 1)
	} else {
		plan.Probability("grant.declare", 0.01)
		plan.Probability("grant.validate", 0.01)
		plan.Probability("hv.copy", 0.02)
		plan.Probability("hv.map", 0.01)
		plan.Probability("hv.unmap", 0.01)
		plan.Probability("hv.irq.drop", 0.02)
		plan.Probability("hv.irq.dup", 0.02)
		plan.Probability("driver.evil", 0.05)
		if rng.Intn(2) == 0 {
			// Half the seeds also kill the driver VM partway through.
			plan.FailAt("cvd.backend.die", 1+rng.Intn(40))
		}
		if supervised {
			// Supervised seeds additionally stress the supervision machinery
			// itself: occasional swallowed heartbeat acks and restart-time
			// boot failures.
			plan.Probability("cvd.heartbeat.drop", 0.02)
			plan.Probability("machine.restart.fail", 0.1)
		}
		if handoverArmed {
			// Handover seeds arm every abort path of the planned migration;
			// each abort must leave the predecessor serving (the liveness and
			// canary invariants below then apply to it unchanged).
			plan.Probability("machine.handover.fail", 0.1)
			plan.Probability("handover.drain.timeout", 0.1)
			plan.Probability("handover.warm.fail", 0.1)
		}
	}

	// Randomized workload: a few tasks, each issuing a few operations.
	// Everything is drawn from the plan's rng before the simulation starts,
	// so the whole run is a pure function of the seed.
	nTasks := 3 + rng.Intn(5)
	opsPer := 2 + rng.Intn(6)
	if weaken {
		nTasks, opsPer = 1, 2
	}
	taskOps := make([][]stressOp, nTasks)
	for i := range taskOps {
		taskOps[i] = make([]stressOp, opsPer)
		for j := range taskOps[i] {
			if weaken {
				taskOps[i][j] = opWrite
			} else {
				taskOps[i][j] = stressOp(rng.Intn(int(opKinds)))
			}
		}
	}

	faults.Install(env, plan)

	// The planned handover starts at once. Its successor boots for
	// perf.CostDriverVMRestart while the predecessor serves, and the
	// workload starts handoverLead before that boot ends, so the drain
	// parks the stress tasks' and the generator's posts and the switch
	// carries their open files over. A supervised seed asks its supervisor
	// to run the handover on the watchdog, serialized with the heartbeat
	// sweeps; hoErrs is each attempt's outcome as its caller saw it.
	var hoErrs []error
	var start sim.Time
	if handoverArmed {
		if supervised {
			if err := m.RequestHandover(); err != nil {
				return err
			}
		} else {
			env.Spawn("stress-handover", func(*sim.Proc) {
				hoErrs = append(hoErrs, m.HandoverDriverVM())
			})
		}
		start = start.Add(perf.CostDriverVMRestart - handoverLead)
		m.RunUntil(start)
	}

	tasks := make([]*stressTask, nTasks)
	for i, ops := range taskOps {
		if tasks[i], err = spawnStressTask(app, fmt.Sprintf("stress-%d", i),
			fmt.Sprintf("task-%02d-payload-bytes", i), ops); err != nil {
			return err
		}
	}
	if gen != nil {
		if err := gen.Start(g.K); err != nil {
			return err
		}
	}
	var xtasks []*stressTask
	for gi, x := range xguests {
		for ti := 0; ti < 2; ti++ {
			ops := make([]stressOp, 4)
			for j := range ops {
				// opWrite..opNoop, spread across guests/tasks by seed
				// arithmetic — deterministic, rng-free.
				ops[j] = stressOp((seed + int64(gi*7+ti*3+j)) % int64(opMmapCycle))
			}
			st, err := spawnStressTask(x.app, fmt.Sprintf("xstress-%d-%d", gi, ti),
				fmt.Sprintf("xguest-%d-task-%d-payload", gi, ti), ops)
			if err != nil {
				return err
			}
			x.tasks = append(x.tasks, st)
			xtasks = append(xtasks, st)
		}
	}

	// Phase 1: run with faults firing. A supervised seed runs on for its
	// restart budget, then stops the supervisor — its watchdog keeps the
	// calendar busy, so it must stop before any full calendar drain — and
	// settles until no restart can be in progress.
	end := start.Add(faultWindow)
	if sup := m.Supervisor(); sup != nil {
		end = end.Add(maxRestarts * healAttempt)
		m.RunUntil(end)
		sup.Stop()
		end = end.Add(healAttempt)
	}
	m.RunUntil(end)
	t1 := env.Now()

	// Phase 2: the fault window closes. If anything is still blocked — the
	// driver VM died, or a doorbell/response interrupt was dropped with no
	// later traffic to re-scan the ring — remove the fault plan and let the
	// calendar run dry. If the main tasks are among the blocked, first run
	// the paper's recovery: the operator restarts the driver VM, which
	// reconnects every channel (sink and extra guests included) and lifts
	// any degraded-mode verdict a budget-exhausted supervisor left behind.
	// Blocked clients and extra guests alone must drain on their
	// per-request deadlines.
	if stillBlocked(tasks) > 0 || (gen != nil && !gen.Done()) || stillBlocked(xtasks) > 0 {
		faults.Uninstall(env)
		if stillBlocked(tasks) > 0 {
			if err := m.RestartDriverVM(); err != nil {
				return fmt.Errorf("phase-2 restart: %w", err)
			}
		}
		m.Run()
	}
	if env.Now() < t1 {
		return fmt.Errorf("invariant: virtual clock ran backwards (%v -> %v)", t1, env.Now())
	}

	// Invariant: no process panicked, even where a supervisor absorbed it.
	if len(absorbed) > 0 {
		return fmt.Errorf("invariant: process %s panicked (absorbed as a driver oops): %v\n%s",
			absorbed[0].Proc, absorbed[0].Value, absorbed[0].Stack)
	}
	// Invariant: liveness. Every task has returned from every syscall.
	if n := stillBlocked(tasks); n > 0 {
		return fmt.Errorf("invariant: %d/%d tasks still blocked after recovery (deadlocked: %v; %v)",
			n, nTasks, env.Deadlocked(), plan)
	}
	// Invariant: open-loop liveness and honesty. The generator's clients
	// drained despite the fault schedule, and none of them saw anything but
	// an honest errno.
	if gen != nil {
		if !gen.Done() {
			return fmt.Errorf("invariant: open-loop clients still blocked after recovery (deadlocked: %v; %v)",
				env.Deadlocked(), plan)
		}
		lr := gen.Result()
		if len(lr.Violations) > 0 {
			return fmt.Errorf("invariant: open-loop generator: %d violations, first: %s (%v)",
				len(lr.Violations), lr.Violations[0], plan)
		}
		// Every scheduled arrival ran and ended in exactly one outcome. A
		// seed may schedule none (a quiet bursty window); TestStressSeeded
		// checks that the sweep as a whole offered arrivals.
		var issued uint64
		for _, c := range lr.Classes {
			if c.OK+c.Throttled+c.Rejected+c.Errors != c.Issued {
				return fmt.Errorf("invariant: open-loop class %s issued %d requests but recorded %d outcomes (%v)",
					c.Class.Name, c.Issued, c.OK+c.Throttled+c.Rejected+c.Errors, plan)
			}
			issued += c.Issued
		}
		if issued != lr.Offered {
			return fmt.Errorf("invariant: open-loop generator issued %d of %d scheduled arrivals (%v)",
				issued, lr.Offered, plan)
		}
		if out != nil {
			out.offered = lr.Offered
		}
	}
	// Invariant: handover honesty. Each episode's record must agree with
	// itself and with the outcome its caller saw — a "successful" handover
	// that did not reach StageDone (or an abort that claims it committed)
	// means the engine lost track of which driver VM owns the channels.
	if handoverArmed {
		if supervised {
			for _, c := range m.Supervisor().Changes() {
				if r, ok := strings.CutPrefix(c.Reason, "maintenance failed: "); ok {
					hoErrs = append(hoErrs, errors.New(r))
				} else if strings.HasPrefix(c.Reason, "maintenance: ") {
					hoErrs = append(hoErrs, nil)
				}
			}
		}
		eps := m.Handovers()
		if len(hoErrs) != 1 || len(eps) != 1 {
			return fmt.Errorf("invariant: one handover asked for, %d outcomes and %d episodes (%v)",
				len(hoErrs), len(eps), plan)
		}
		ep, hoErr := eps[0], hoErrs[0]
		if ep.Aborted != (ep.Stage != handover.StageDone) || ep.Aborted != (ep.Cause != "") {
			return fmt.Errorf("invariant: inconsistent handover episode %+v (%v)", ep, plan)
		}
		if (hoErr == nil) == ep.Aborted {
			return fmt.Errorf("invariant: handover returned %v but episode %+v (%v)", hoErr, ep, plan)
		}
	}
	// Invariant: honest errnos only.
	for i, st := range tasks {
		if st.viol != nil {
			return fmt.Errorf("invariant: task %d: %v (%v)", i, st.viol, plan)
		}
	}
	// Invariant: isolation. The canary was never granted; it must be intact,
	// and no undeclared driver copy may have been allowed through — counting
	// the driver of every generation, which the fault plan attacks just
	// like the first.
	evilAllowed, evilDenied := 0, 0
	for _, d := range drivers {
		evilAllowed += d.evilAllowed
		evilDenied += d.evilDenied
	}
	got := make([]byte, len(canary))
	if err := app.Mem.Read(canaryVA, got); err != nil {
		return fmt.Errorf("canary readback: %v", err)
	}
	if string(got) != string(canary) {
		return fmt.Errorf("invariant: canary corrupted: %q -> %q (evil allowed=%d denied=%d; %v)",
			canary, got, evilAllowed, evilDenied, plan)
	}
	if evilAllowed > 0 {
		return fmt.Errorf("invariant: hypervisor allowed %d undeclared driver copies (%v)",
			evilAllowed, plan)
	}
	// Invariants, per extra guest of the multi-VM arm: liveness, honest
	// errnos only, and an intact canary — one guest's traffic (or the shared
	// driver VM's death) must never leak into another guest's ungranted
	// memory.
	for gi, x := range xguests {
		for ti, st := range x.tasks {
			if !st.done {
				return fmt.Errorf("invariant: extra guest %d task %d still blocked after recovery (deadlocked: %v; %v)",
					gi, ti, env.Deadlocked(), plan)
			}
			if st.viol != nil {
				return fmt.Errorf("invariant: extra guest %d task %d: %v (%v)", gi, ti, st.viol, plan)
			}
			if out != nil {
				out.xguestOK += st.ok
			}
		}
		got := make([]byte, len(x.canary))
		if err := x.app.Mem.Read(x.canaryVA, got); err != nil {
			return fmt.Errorf("extra guest %d canary readback: %v", gi, err)
		}
		if !bytes.Equal(got, x.canary) {
			return fmt.Errorf("invariant: extra guest %d canary corrupted: %q -> %q (%v)",
				gi, x.canary, got, plan)
		}
	}
	return nil
}

// writeForensics replays a failing seed under the full observability layer —
// flight recorder force-armed — and writes the flight-recorder dump, metrics
// snapshot, and Chrome trace to a temp artifact directory. The simulation is
// a pure function of the seed and the recorder is a pure observer, so the
// replay reproduces the failure exactly; the artifacts are what a bug report
// attaches next to the reproduction command. Returns the directory ("" if
// the artifacts could not be written — forensics must never mask the real
// failure).
func writeForensics(t *testing.T, seed int64) string {
	t.Helper()
	c := traceCapture{forceFlight: true}
	_ = runOne(seed, forcedArms, false, &c, nil) // same invariant failure, now instrumented
	dir, err := os.MkdirTemp("", fmt.Sprintf("stress-forensics-seed%d-", seed))
	if err != nil {
		t.Logf("forensics: %v", err)
		return ""
	}
	for name, data := range map[string][]byte{
		"flightrec.txt": c.flight,
		"metrics.txt":   c.metrics,
		"trace.json":    c.trace,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Logf("forensics: %v", err)
			return ""
		}
	}
	return dir
}

// TestStressSeeded sweeps seeds (1000 by default: -stress.seeds) and fails
// on the first seed whose run breaks an invariant, printing the reproduction
// command and writing flight-recorder forensics for the failing seed.
func TestStressSeeded(t *testing.T) {
	if *stressSeed >= 0 {
		if err := runOne(*stressSeed, forcedArms, false, nil, nil); err != nil {
			t.Fatalf("seed %d: %v\nforensics: %s", *stressSeed, err, writeForensics(t, *stressSeed))
		}
		return
	}
	n := int64(*stressSeeds)
	if raceEnabled && n > 100 {
		// Each seeded simulation is ~30x slower under the race detector;
		// sweep a slice of the seed space there and the full breadth in the
		// plain run.
		n = 100
	}
	// Per seed, runOne checks that every arrival the open-loop generator
	// scheduled was accounted for; a seed may schedule none. Across the
	// sweep, the seeds that armed the generator must have offered some.
	openloopSeeds, offered := 0, uint64(0)
	for seed := int64(0); seed < n; seed++ {
		var out seedOutcome
		if err := runOne(seed, forcedArms, false, nil, &out); err != nil {
			t.Fatalf("stress invariant broken at seed %d: %v\nreproduce: go test ./internal/faults -run TestStressSeeded -stress.seed=%d\nforensics: %s",
				seed, err, seed, writeForensics(t, seed))
		}
		if armedArms(seed, forcedArms)["openloop"] {
			openloopSeeds++
			offered += out.offered
		}
	}
	if openloopSeeds > 0 && offered == 0 {
		t.Fatalf("the open-loop generator offered no arrivals over the %d seeds that armed it", openloopSeeds)
	}
}

// TestStressTraceDeterministic replays 50 stress seeds twice each under the
// observability layer and demands byte-identical exports: the Chrome trace
// file and the metrics dump are pure functions of (seed, config), exactly
// like the simulation itself. This is the property that makes a trace file
// attached to a bug report trustworthy — re-running the printed seed
// regenerates it bit for bit.
func TestStressTraceDeterministic(t *testing.T) {
	n := int64(50)
	if forcedArms["adaptive"] || forcedArms["multivm"] {
		// The adaptive and multi-VM arms sweep wider: stance switching and
		// batch flush timing (adaptive) and cross-guest interleavings over
		// the shared driver VM (multivm) add schedules the base runs never
		// exercise, and the whole point of each arm is that none of them
		// leak into the exports.
		n = 250
	}
	if raceEnabled {
		n = 10 // each traced run is ~30x slower under the race detector
	}
	for seed := int64(0); seed < n; seed++ {
		run := func() (trc, met, fl []byte) {
			var c traceCapture
			if err := runOne(seed, forcedArms, false, &c, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return c.trace, c.metrics, c.flight
		}
		t1, m1, f1 := run()
		t2, m2, f2 := run()
		if len(t1) == 0 || len(m1) == 0 {
			t.Fatalf("seed %d: empty trace (%d bytes) or metrics (%d bytes) export", seed, len(t1), len(m1))
		}
		if seed%4 == 0 && len(f1) == 0 {
			t.Fatalf("seed %d: flight recorder armed (open-loop residue) but dump is empty", seed)
		}
		if !bytes.Equal(t1, t2) {
			t.Fatalf("seed %d: trace file diverged between identical runs (%d vs %d bytes)", seed, len(t1), len(t2))
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("seed %d: metrics dump diverged between identical runs:\n--- run 1\n%s\n--- run 2\n%s", seed, m1, m2)
		}
		if !bytes.Equal(f1, f2) {
			t.Fatalf("seed %d: flight-recorder dump diverged between identical runs:\n--- run 1\n%s\n--- run 2\n%s", seed, f1, f2)
		}
	}
}

// TestHarnessCatchesWeakenedGrantCheck arms the deliberately broken grant
// check and verifies the harness catches the resulting isolation violation —
// proof the canary invariant has teeth.
func TestHarnessCatchesWeakenedGrantCheck(t *testing.T) {
	err := runOne(4242, nil, true, nil, nil)
	if err == nil {
		t.Fatal("weakened grant check went undetected: the stress harness has no teeth")
	}
	if !strings.Contains(err.Error(), "canary") {
		t.Fatalf("weakened grant check detected, but not via the canary: %v", err)
	}
	t.Logf("caught as intended (seed 4242): %v", err)
}

// TestStressArmTable pins the arm table: for the default sweep, for each arm
// forced alone, for supervised+handover and for walkcache+handover, seeds 0-7
// must arm exactly the sets listed here (per seed%4, sorted). An edit to the
// table that re-arms the default sweep, or moves an arm to another residue,
// fails here.
func TestStressArmTable(t *testing.T) {
	cases := []struct {
		forced string
		want   [4]string
	}{
		{"", [4]string{"flightrec,openloop", "fastpath", "walkcache", "supervised"}},
		{"supervised", [4]string{"flightrec,openloop,supervised", "fastpath,supervised", "supervised,walkcache", "supervised"}},
		{"fastpath", [4]string{"fastpath,flightrec,openloop", "fastpath", "fastpath,walkcache", "fastpath,supervised"}},
		{"walkcache", [4]string{"flightrec,openloop,walkcache", "fastpath,walkcache", "walkcache", "supervised,walkcache"}},
		{"openloop", [4]string{"flightrec,openloop", "fastpath,openloop", "openloop,walkcache", "openloop,supervised"}},
		{"flightrec", [4]string{"flightrec,openloop", "fastpath,flightrec", "flightrec,walkcache", "flightrec,supervised"}},
		{"handover", [4]string{"flightrec,handover,openloop", "fastpath", "walkcache", "supervised"}},
		{"adaptive", [4]string{"adaptive,flightrec,openloop", "adaptive,fastpath", "adaptive,walkcache", "adaptive,supervised"}},
		{"multivm", [4]string{"flightrec,multivm,openloop", "fastpath,multivm", "multivm,walkcache", "multivm,supervised"}},
		{"supervised,handover", [4]string{"flightrec,handover,openloop,supervised", "fastpath,supervised", "supervised,walkcache", "supervised"}},
		{"walkcache,handover", [4]string{"flightrec,handover,openloop,walkcache", "fastpath,walkcache", "walkcache", "supervised,walkcache"}},
	}
	for _, c := range cases {
		forced := armSet{}
		if c.forced != "" {
			if err := forced.force(c.forced); err != nil {
				t.Fatal(err)
			}
		}
		for seed := int64(0); seed < 8; seed++ {
			var got []string
			for name := range armedArms(seed, forced) {
				got = append(got, name)
			}
			slices.Sort(got)
			if g := strings.Join(got, ","); g != c.want[seed%4] {
				t.Errorf("forced %q, seed %d: armed %q, want %q", c.forced, seed, g, c.want[seed%4])
			}
		}
	}
	for _, bad := range []string{"bogus", "fastpath,bogus", "", "fastpath,"} {
		if err := (armSet{}).force(bad); err == nil {
			t.Errorf("-stress.arms=%q accepted, want an unknown-arm error", bad)
		}
	}
}

// armSignatures lists, per arm, what the arm exists to reach: counters of
// the subsystem it turns on, moved under fire. A "*" in a name matches any
// run of characters (per-channel counters carry the path and the guest).
// "generator offered" and "extra-guest ops" are outcomes no counter
// records; runOne reports them through its seedOutcome.
var armSignatures = []struct {
	arm  string
	need []string
}{
	{"supervised", []string{"supervise.recoveries"}},
	{"handover", []string{"machine.handover.completed", "machine.handover.aborted",
		"cvd.*.queued", "cvd.handover.warm_reopens"}},
	{"fastpath", []string{"cvd.mapcache.hits", "cvd.doorbell.flushes"}},
	{"walkcache", []string{"hv.tlb.hit", "hv.grant.cache.hit"}},
	{"adaptive", []string{"cvd.adaptive.switches"}},
	{"openloop", []string{"generator offered", "cvd.*.eagain.class2"}},
	{"multivm", []string{"extra-guest ops"}},
}

// TestStressArmsReachTheirPaths runs 64 traced seeds of each arm forced
// alone and requires every entry of the arm's signature to be non-zero: an
// arm whose subsystem the sweep never reaches guards nothing, whatever its
// comment claims.
func TestStressArmsReachTheirPaths(t *testing.T) {
	if len(forcedArms) > 0 || *stressSeed >= 0 {
		t.Skip("forces each arm itself; run it without -stress.arms or -stress.seed")
	}
	for _, sig := range armSignatures {
		totals := make(map[string]uint64)
		for seed := int64(0); seed < 64; seed++ {
			var c traceCapture
			var out seedOutcome
			if err := runOne(seed, armSet{sig.arm: true}, false, &c, &out); err != nil {
				t.Fatalf("arm %s, seed %d: %v", sig.arm, seed, err)
			}
			totals["generator offered"] += out.offered
			totals["extra-guest ops"] += uint64(out.xguestOK)
			sc := bufio.NewScanner(bytes.NewReader(c.metrics))
			for sc.Scan() {
				var name string
				var v uint64
				if _, err := fmt.Sscanf(sc.Text(), "counter %s %d", &name, &v); err != nil {
					continue
				}
				for _, pat := range sig.need {
					pre, suf, wild := strings.Cut(pat, "*")
					if name == pat || wild && strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf) {
						totals[pat] += v
					}
				}
			}
		}
		for _, pat := range sig.need {
			if totals[pat] == 0 {
				t.Errorf("arm %s: %s is 0 over 64 seeds", sig.arm, pat)
			}
		}
	}
}
