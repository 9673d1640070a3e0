package faults_test

// The seeded randomized stress harness of the fault-injection layer: each
// seed builds a tiny Paradice deployment (hypervisor, driver VM, guest VM,
// one paravirtualized device file), arms a randomized fault plan, runs a
// randomized guest workload through the device-file boundary while faults
// fire, then — if anything is still blocked once the fault window closes —
// performs the §8 recovery (driver VM restart + Reconnect) and checks the
// invariants that must survive ANY fault schedule:
//
//   - liveness: every guest task eventually unblocks;
//   - honest errors: whatever a task observed is a real errno, never a
//     Go-level failure leaking across the VM boundary;
//   - isolation: guest memory the guest never granted (the canary) is
//     byte-identical after the run, even though the driver was actively
//     trying to scribble on it ("driver.evil");
//   - no backend panic: a sim process panicking is trapped and reported;
//   - monotone virtual clock.
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
// table (stressArms) holds every arming rule.
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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"paradice/internal/cvd"
	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/handover"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/mem"
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
// Supervised seeds never hand over: the harness-level handover and the
// supervisor would be two lifecycle managers fighting over one channel.
func armedArms(seed int64, forced armSet) armSet {
	on := armSet{}
	for _, a := range stressArms {
		if a.armed(seed, forced[a.name]) {
			on[a.name] = true
		}
	}
	if on["supervised"] {
		delete(on, "handover")
	}
	return on
}

const (
	stressPath = "/dev/stressdev"
	vmRAM      = 4 << 20
)

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
	d := &stressDriver{env: k.Env, wq: k.NewWaitQueue("stressdrv"), evilVA: evilVA}
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

// stressTarget adapts the bare cvd rig to internal/supervise: the one
// supervised channel is the rig's frontend/backend pair, and Restart is the
// §8 recovery (fresh driver VM + Reconnect) performed automatically under
// fire. Restart here is instantaneous on the virtual clock — the stress
// harness probes correctness under fault schedules, not recovery latency
// (the root package's MTTR tests charge the real reboot cost).
type stressTarget struct {
	env      *sim.Env
	h        *hv.Hypervisor
	fe       *cvd.Frontend
	be       *cvd.Backend
	canaryVA mem.GuestVirt
	drivers  []*stressDriver
	gen      int
}

func (st *stressTarget) Channels() []supervise.Channel { return []supervise.Channel{st} }
func (st *stressTarget) ID() string                    { return "guest:" + stressPath }
func (st *stressTarget) Alive() bool                   { return st.be.Alive() }
func (st *stressTarget) OnDeath(fn func())             { st.be.OnDeath(fn) }
func (st *stressTarget) SetDegraded(on bool)           { st.fe.SetDegraded(on) }
func (st *stressTarget) Heartbeat(p *sim.Proc, timeout sim.Duration) bool {
	return st.fe.Heartbeat(p, timeout)
}

func (st *stressTarget) Restart() error {
	if d := faults.Point(st.env, "machine.restart.fail"); d != nil {
		// The replacement driver VM fails to boot; the supervisor counts
		// the attempt against its backoff budget.
		return d.Error()
	}
	st.be.Stop()
	st.gen++
	name := fmt.Sprintf("driver-r%d", st.gen)
	vm, err := st.h.CreateVM(name, vmRAM)
	if err != nil {
		return err
	}
	k := kernel.New(name, kernel.Linux, st.env, vm.Space, vm.RAM)
	drv, err := newStressDriver(k, st.canaryVA)
	if err != nil {
		return err
	}
	st.drivers = append(st.drivers, drv)
	be, err := cvd.Reconnect(st.fe, st.h, vm, k, stressPath)
	if err != nil {
		return err
	}
	st.be = be
	return nil
}

// evilTotals sums the compromised-driver probe counters across the original
// driver and every supervised-restart replacement.
func (st *stressTarget) evilTotals() (allowed, denied int) {
	for _, d := range st.drivers {
		allowed += d.evilAllowed
		denied += d.evilDenied
	}
	return
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

// runOne executes one seeded stress simulation and returns nil if every
// invariant held. With weaken set, the run instead arms the deliberately
// broken grant check ("grant.validate.skip") plus one scripted evil driver
// copy — the harness must then DETECT the isolation violation and return an
// error naming the canary; that self-test is what makes the green runs
// trustworthy.
func runOne(seed int64, weaken bool, cap *traceCapture) (retErr error) {
	env := sim.NewEnv()
	defer func() {
		if r := recover(); r != nil {
			// A sim process panicking anywhere (backend included) is itself
			// an invariant violation; sim traps it to this goroutine, and
			// FaultStack keeps the panic site when it was a process's.
			retErr = fmt.Errorf("invariant: simulation panicked: %v\n%s", r, env.FaultStack())
		}
	}()

	plan := faults.New(seed)
	rng := plan.Rand()
	defer env.Close()
	var fr *trace.FlightRecorder
	if cap != nil {
		tr := trace.New()
		trace.Install(env, tr)
		defer func() {
			trace.Uninstall(env)
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

	// The weakened run arms nothing: its point is the evil copy slipping
	// past a broken grant check, which every arm would obscure.
	arms := armSet{}
	if !weaken {
		arms = armedArms(seed, forcedArms)
	}

	// The supervised arm runs with the driver-VM supervisor: deaths the plan
	// injects are then healed automatically, under fire, while the workload
	// keeps issuing operations.
	supervised := arms["supervised"]

	// The fastpath arm enables the bulk-transfer fast path: the grant-map
	// cache at a threshold low enough that the tiny stress read/write
	// payloads route through it, plus doorbell coalescing in interrupt
	// mode. The isolation invariants below (canary, honest errnos,
	// liveness) must hold with cached mappings and batched doorbells exactly
	// as they do on the per-request assisted-copy path.
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
	// bulk class admission-limited — floods it while the fault plan fires
	// on both channels. The sink channel is deliberately NOT part of the
	// phase-2 recovery: its per-request deadline is what must keep the
	// generator's clients live when the plan kills that backend, and every
	// outcome the clients observe must still be an honest errno.
	openloop := arms["openloop"]

	// The flightrec arm (or a forensics replay) arms the flight recorder:
	// always-on digests over the very runs that flood the ring, with the
	// injected errnos, sheds, and restart episodes landing as tail-based
	// outlier captures. On a plain sweep (no traceCapture) a retention-free
	// tracer carries the digests so a 4 ms flood stays O(ring capacity); a
	// capturing run reuses its full tracer, and the dump joins the
	// byte-identical replay contract.
	flightrec := !weaken && (arms["flightrec"] || (cap != nil && cap.forceFlight))
	if flightrec {
		tr := trace.Get(env)
		if tr == nil {
			tr = trace.New()
			tr.SetEventRetention(false)
			trace.Install(env, tr)
			defer trace.Uninstall(env)
		}
		fr = tr.ArmFlightRecorder(trace.FlightConfig{
			Threshold: 2 * sim.Millisecond,
		})
	}

	// The handover arm performs a planned driver-VM handover mid-run, with
	// the handover's own fault points armed so the sweep exercises every
	// abort path.
	handoverArmed := arms["handover"]

	// The multivm arm: two extra guest VMs join the deployment, each with
	// its own kernel, process, ungranted canary, and CVD channel to the same
	// stress device in the shared driver VM. Their workloads are derived
	// from the seed by plain arithmetic, not the plan's rng, so arming it
	// changes NOTHING in the base run's random sequence — the same seed
	// produces the same fault schedule with or without the extra guests. The invariants become per-guest: every
	// extra guest's tasks stay live on per-request deadlines alone (their
	// channels are deliberately left out of the phase-2 recovery, like the
	// sink channel), they observe only honest errnos, and each guest's canary
	// — memory no operation from ANY guest ever granted — is byte-identical
	// after the run, however the shared driver VM died, restarted, or
	// scribbled.
	multivm := arms["multivm"]

	h := hv.New(env, 64<<20)
	driverVM, err := h.CreateVM("driver", vmRAM)
	if err != nil {
		return err
	}
	driverK := kernel.New("driver", kernel.Linux, env, driverVM.Space, driverVM.RAM)
	guestVM, err := h.CreateVM("guest", vmRAM)
	if err != nil {
		return err
	}
	guestK := kernel.New("guest", kernel.Linux, env, guestVM.Space, guestVM.RAM)

	app, err := guestK.NewProcess("stress-app")
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

	drv, err := newStressDriver(driverK, canaryVA)
	if err != nil {
		return err
	}

	mode := cvd.Interrupts
	if !weaken && rng.Intn(2) == 1 {
		mode = cvd.Polling
	}
	// The adaptive arm overrides the transport AFTER the rng draw above, so
	// the rest of the seed's random sequence — and thus its fault schedule —
	// is identical to the static-mode run of the same seed.
	adaptive := arms["adaptive"]
	if adaptive {
		mode = cvd.Adaptive
	}
	var deadline sim.Duration
	if supervised {
		// Supervised deployments run with per-request deadlines so an issuer
		// stuck behind a dead backend unblocks with ETIMEDOUT.
		deadline = 5 * sim.Millisecond
	}
	cfg := cvd.Config{
		HV: h, GuestVM: guestVM, GuestK: guestK,
		DriverVM: driverVM, DriverK: driverK,
		DevicePath: stressPath, Mode: mode,
		RequestDeadline: deadline,
	}
	if fastpath {
		cfg.MapCache = true
		cfg.MapThreshold = 1 // the stress payloads are tiny; force the map path
		cfg.CoalesceWindow = 20 * sim.Microsecond
	}
	if walkcache {
		cfg.TLB = true
		cfg.GrantBatch = true
	}
	if adaptive {
		// Batching rides the adaptive arm: multi-entry submission doorbells
		// and shared response IRQs under every fault the plan can throw.
		cfg.CoalesceWindow = 20 * sim.Microsecond
	}
	fe, be, err := cvd.Connect(cfg)
	if err != nil {
		return err
	}

	var gen *load.Generator
	if openloop {
		sink := load.NewSink(env, 2*sim.Microsecond, sim.Microsecond)
		driverK.RegisterDevice(load.SinkPath, sink, sink)
		if _, _, err := cvd.Connect(cvd.Config{
			HV: h, GuestVM: guestVM, GuestK: guestK,
			DriverVM: driverVM, DriverK: driverK,
			DevicePath: load.SinkPath, Mode: mode,
			// Liveness under fire: nothing ever reconnects this channel,
			// so requests stranded by a killed backend must unblock with
			// ETIMEDOUT on their own.
			RequestDeadline: 5 * sim.Millisecond,
			Admission:       map[uint8]int{2: 60},
		}); err != nil {
			return err
		}
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
		if err := gen.Start(guestK); err != nil {
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
		done     []bool
		viol     []error
	}
	var xguests []*xguest
	if multivm {
		for gi := 0; gi < 2; gi++ {
			name := fmt.Sprintf("guest-x%d", gi)
			vm, err := h.CreateVM(name, vmRAM)
			if err != nil {
				return err
			}
			k := kernel.New(name, kernel.Linux, env, vm.Space, vm.RAM)
			xapp, err := k.NewProcess(name + "-app")
			if err != nil {
				return err
			}
			xc := []byte(fmt.Sprintf("multi-guest-canary-%02d-intact!!", gi))
			xcVA, err := xapp.AllocBytes(xc)
			if err != nil {
				return err
			}
			// Same transport options as the main channel; the deadline is the
			// extra channel's only liveness mechanism (nothing ever reconnects
			// it), exactly like the sink channel.
			xcfg := cfg
			xcfg.GuestVM, xcfg.GuestK = vm, k
			xcfg.RequestDeadline = 5 * sim.Millisecond
			if _, _, err := cvd.Connect(xcfg); err != nil {
				return err
			}
			const xTasks, xOps = 2, 4
			xg := &xguest{app: xapp, canary: xc, canaryVA: xcVA,
				done: make([]bool, xTasks), viol: make([]error, xTasks)}
			xguests = append(xguests, xg)
			for ti := 0; ti < xTasks; ti++ {
				ti := ti
				ops := make([]stressOp, xOps)
				for j := range ops {
					// opWrite..opNoop, spread across guests/tasks by seed
					// arithmetic — deterministic, rng-free.
					ops[j] = stressOp((seed + int64(gi*7+ti*3+j)) % int64(opMmapCycle))
				}
				wbuf := []byte(fmt.Sprintf("xguest-%d-task-%d-payload", gi, ti))
				wVA, err := xapp.AllocBytes(wbuf)
				if err != nil {
					return err
				}
				rVA, err := xapp.Alloc(64)
				if err != nil {
					return err
				}
				xVA, err := xapp.AllocBytes(make([]byte, 32))
				if err != nil {
					return err
				}
				xapp.SpawnTask(fmt.Sprintf("xstress-%d-%d", gi, ti), func(tk *kernel.Task) {
					flags := devfile.ORdWr | devfile.ONonblock
					fd, err := tk.Open(stressPath, flags)
					if err != nil {
						if !isErrnoOrNil(err) {
							xg.viol[ti] = fmt.Errorf("open leaked non-errno error: %w", err)
						}
						xg.done[ti] = true
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
						}
						if err == nil {
							continue
						}
						if !isErrnoOrNil(err) {
							xg.viol[ti] = fmt.Errorf("op %d leaked non-errno error: %w", op, err)
							break
						}
						if kernel.IsErrno(err, kernel.EREMOTE) || kernel.IsErrno(err, kernel.EINVAL) ||
							kernel.IsErrno(err, kernel.ETIMEDOUT) {
							if fd2, err2 := tk.Open(stressPath, flags); err2 == nil {
								fd = fd2
							} else if !isErrnoOrNil(err2) {
								xg.viol[ti] = fmt.Errorf("reopen leaked non-errno error: %w", err2)
								break
							}
						}
					}
					if err := tk.Close(fd); err != nil && !isErrnoOrNil(err) {
						xg.viol[ti] = fmt.Errorf("close leaked non-errno error: %w", err)
					}
					xg.done[ti] = true
				})
			}
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
	faults.Install(env, plan)
	defer faults.Uninstall(env)

	var sup *supervise.Supervisor
	var st *stressTarget
	if supervised {
		st = &stressTarget{env: env, h: h, fe: fe, be: be,
			canaryVA: canaryVA, drivers: []*stressDriver{drv}}
		sup = supervise.Start(env, st, supervise.Config{
			HeartbeatEvery: 2 * sim.Millisecond,
			BackoffBase:    sim.Millisecond,
			BackoffCap:     8 * sim.Millisecond,
			MaxRestarts:    3,
			StableAfter:    20 * sim.Millisecond,
		})
	}

	// The planned-handover arm: a proc kicks a cvd-level handover of the
	// stress channel at 3 ms — squarely inside the fault window and the
	// open-loop arrival window — through the same staged engine the Machine
	// uses. liveBE tracks the serving backend across the switch so phase 2's
	// manual recovery stops the right one.
	liveBE := be
	var hoDrivers []*stressDriver
	var hoEp handover.Episode
	var hoErr error
	hoRan := false
	if handoverArmed {
		env.Spawn("stress-handover", func(p *sim.Proc) {
			p.Sleep(3 * sim.Millisecond)
			var succVM *hv.VM
			var succK *kernel.Kernel
			var prep *cvd.HandoverPrep
			hoEp, hoErr = handover.Run(env, handover.Hooks{
				Prepare: func() error {
					vm, err := h.CreateVM(fmt.Sprintf("driver-h%d", seed), vmRAM)
					if err != nil {
						return err
					}
					k := kernel.New(vm.Name, kernel.Linux, env, vm.Space, vm.RAM)
					d2, err := newStressDriver(k, canaryVA)
					if err != nil {
						return err
					}
					hoDrivers = append(hoDrivers, d2)
					succVM, succK = vm, k
					return nil
				},
				BeginDrain: func() { fe.BeginDrain(10 * sim.Millisecond) },
				DrainIdle:  func() bool { return fe.Occupancy() == 0 },
				EndDrain:   func() { fe.EndDrain() },
				Switch: func() error {
					pr, err := cvd.PrepareHandover(fe, h, succVM, succK)
					if err != nil {
						return err
					}
					prep = pr
					pred := liveBE
					be2, err := cvd.CompleteHandover(fe, prep, succVM, succK, stressPath)
					if err != nil {
						return err
					}
					liveBE = be2
					if pred != nil {
						pred.Stop()
					}
					return nil
				},
				Abort: func(stage handover.Stage, cause string) {
					if prep != nil {
						prep.Discard()
					}
				},
			})
			hoRan = true
		})
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

	done := make([]bool, nTasks)
	violations := make([]error, nTasks)
	for i := 0; i < nTasks; i++ {
		i := i
		wbuf := []byte(fmt.Sprintf("task-%02d-payload-bytes", i))
		wVA, err := app.AllocBytes(wbuf)
		if err != nil {
			return err
		}
		rVA, err := app.Alloc(64)
		if err != nil {
			return err
		}
		xVA, err := app.AllocBytes(make([]byte, 32))
		if err != nil {
			return err
		}
		app.SpawnTask(fmt.Sprintf("stress-%d", i), func(tk *kernel.Task) {
			flags := devfile.ORdWr | devfile.ONonblock
			fd, err := tk.Open(stressPath, flags)
			if err != nil {
				if !isErrnoOrNil(err) {
					violations[i] = fmt.Errorf("open leaked non-errno error: %w", err)
				}
				done[i] = true
				return
			}
			for _, op := range taskOps[i] {
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
					continue
				}
				if !isErrnoOrNil(err) {
					violations[i] = fmt.Errorf("op %d leaked non-errno error: %w", op, err)
					break
				}
				if kernel.IsErrno(err, kernel.EREMOTE) || kernel.IsErrno(err, kernel.EINVAL) ||
					kernel.IsErrno(err, kernel.ETIMEDOUT) {
					// Driver VM restarted under us (or a request outlived its
					// deadline): the fd is stale, exactly as §8 describes.
					// Reopen and carry on.
					if fd2, err2 := tk.Open(stressPath, flags); err2 == nil {
						fd = fd2
					} else if !isErrnoOrNil(err2) {
						violations[i] = fmt.Errorf("reopen leaked non-errno error: %w", err2)
						break
					}
				}
			}
			if err := tk.Close(fd); err != nil && !isErrnoOrNil(err) {
				violations[i] = fmt.Errorf("close leaked non-errno error: %w", err)
			}
			done[i] = true
		})
	}

	// Phase 1: run with faults firing. 50ms of simulated time is far beyond
	// what the workload needs when nothing is stuck. A supervisor, when
	// armed, heals injected deaths inside this window; its watchdog keeps
	// the calendar busy, so stop it before any full calendar drain.
	env.RunUntil(env.Now().Add(50 * sim.Millisecond))
	if sup != nil {
		sup.Stop()
	}
	t1 := env.Now()

	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}
	xAllDone := func() bool {
		for _, xg := range xguests {
			for _, d := range xg.done {
				if !d {
					return false
				}
			}
		}
		return true
	}

	// Phase 2: the fault window closes. If anything is still blocked — the
	// driver VM died, or a doorbell/response interrupt was dropped with no
	// later traffic to re-scan the ring — run the paper's recovery: restart
	// the driver VM and reconnect the frontend. The open-loop sink channel
	// is deliberately left out of the recovery: its clients must drain on
	// per-request deadlines alone, so phase 2 only removes the fault plan
	// and lets the calendar run dry for them.
	if !allDone() || (gen != nil && !gen.Done()) || !xAllDone() {
		faults.Uninstall(env)
		if !allDone() {
			cur := liveBE // a committed handover may have replaced the backend
			if st != nil {
				cur = st.be // the supervisor may have replaced the backend
			}
			cur.Stop()
			driverVM2, err := h.CreateVM("driver-restarted", vmRAM)
			if err != nil {
				return err
			}
			driverK2 := kernel.New("driver-restarted", kernel.Linux, env, driverVM2.Space, driverVM2.RAM)
			if _, err := newStressDriver(driverK2, canaryVA); err != nil {
				return err
			}
			if _, err := cvd.Reconnect(fe, h, driverVM2, driverK2, stressPath); err != nil {
				return err
			}
			// The manual operator restart also lifts any degraded-mode
			// verdict a budget-exhausted supervisor left behind, as
			// Machine.RestartDriverVM does.
			fe.SetDegraded(false)
		}
		env.Run()
	}
	if env.Now() < t1 {
		return fmt.Errorf("invariant: virtual clock ran backwards (%v -> %v)", t1, env.Now())
	}

	// Invariant: liveness. Every task has returned from every syscall.
	if !allDone() {
		blocked := 0
		for _, d := range done {
			if !d {
				blocked++
			}
		}
		return fmt.Errorf("invariant: %d/%d tasks still blocked after recovery (deadlocked: %v; %v)",
			blocked, nTasks, env.Deadlocked(), plan)
	}
	// Invariant: open-loop liveness and honesty. The generator's clients
	// drained despite the fault schedule (the sink channel's deadlines are
	// the only thing unsticking them from a killed backend), and none of
	// them saw anything but an honest errno.
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
		if lr.Offered == 0 {
			return fmt.Errorf("invariant: open-loop generator scheduled no arrivals (%v)", plan)
		}
	}
	// Invariant: handover honesty. The episode log must agree with the
	// returned error — a "successful" handover that did not reach StageDone
	// (or an abort that claims it committed) means the engine lost track of
	// which driver VM owns the channel.
	if hoRan {
		if hoErr == nil && (hoEp.Aborted || hoEp.Stage != handover.StageDone) {
			return fmt.Errorf("invariant: handover returned nil but episode %+v (%v)", hoEp, plan)
		}
		if hoErr != nil && !hoEp.Aborted {
			return fmt.Errorf("invariant: handover failed (%v) but episode not aborted: %+v (%v)", hoErr, hoEp, plan)
		}
	}
	// Invariant: honest errnos only.
	for i, v := range violations {
		if v != nil {
			return fmt.Errorf("invariant: task %d: %v (%v)", i, v, plan)
		}
	}
	// Invariant: isolation. The canary was never granted; it must be intact,
	// and no undeclared driver copy may have been allowed through — counting
	// the replacement drivers supervised restarts installed, which the fault
	// plan attacks just like the original.
	evilAllowed, evilDenied := drv.evilAllowed, drv.evilDenied
	if st != nil {
		evilAllowed, evilDenied = st.evilTotals()
	}
	for _, d := range hoDrivers {
		// Handover-successor drivers face the same evil-copy probe.
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
	// Invariants, per extra guest of the multi-VM arm: liveness on deadlines
	// alone, honest errnos only, and an intact canary — one guest's traffic
	// (or the shared driver VM's death) must never leak into another guest's
	// ungranted memory.
	for gi, xg := range xguests {
		for ti, d := range xg.done {
			if !d {
				return fmt.Errorf("invariant: extra guest %d task %d still blocked after recovery (deadlocked: %v; %v)",
					gi, ti, env.Deadlocked(), plan)
			}
		}
		for ti, v := range xg.viol {
			if v != nil {
				return fmt.Errorf("invariant: extra guest %d task %d: %v (%v)", gi, ti, v, plan)
			}
		}
		got := make([]byte, len(xg.canary))
		if err := xg.app.Mem.Read(xg.canaryVA, got); err != nil {
			return fmt.Errorf("extra guest %d canary readback: %v", gi, err)
		}
		if !bytes.Equal(got, xg.canary) {
			return fmt.Errorf("invariant: extra guest %d canary corrupted: %q -> %q (%v)",
				gi, xg.canary, got, plan)
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
	_ = runOne(seed, false, &c) // same invariant failure, now instrumented
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
		if err := runOne(*stressSeed, false, nil); err != nil {
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
	for seed := int64(0); seed < n; seed++ {
		if err := runOne(seed, false, nil); err != nil {
			t.Fatalf("stress invariant broken at seed %d: %v\nreproduce: go test ./internal/faults -run TestStressSeeded -stress.seed=%d\nforensics: %s",
				seed, err, seed, writeForensics(t, seed))
		}
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
			if err := runOne(seed, false, &c); err != nil {
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
	err := runOne(4242, true, nil)
	if err == nil {
		t.Fatal("weakened grant check went undetected: the stress harness has no teeth")
	}
	if !strings.Contains(err.Error(), "canary") {
		t.Fatalf("weakened grant check detected, but not via the canary: %v", err)
	}
	t.Logf("caught as intended (seed 4242): %v", err)
}

// TestStressArmTable pins the arm table: for the default sweep, for each arm
// forced alone, and for supervised+handover, seeds 0-7 must arm exactly the
// sets listed here (per seed%4, sorted). An edit to the table that re-arms
// the default sweep, or moves an arm to another residue, fails here.
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
		{"supervised,handover", [4]string{"flightrec,openloop,supervised", "fastpath,supervised", "supervised,walkcache", "supervised"}},
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
