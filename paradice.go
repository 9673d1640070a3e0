// Package paradice assembles the full systems the paper evaluates: the
// Paradice machine of Figure 1(c) — a bare-metal hypervisor, a driver VM
// owning the real devices and drivers through device assignment, and guest
// VMs reaching those devices through virtual device files served by the
// Common Virtual Driver — plus the two baselines every experiment compares
// against, native execution and direct device assignment.
//
// A Machine carries one of each device class from Table 1: a Radeon-class
// GPU behind the DRM driver, an e1000-class NIC behind netmap, an evdev
// mouse, a UVC camera, and an HD Audio PCM device. Applications are
// simulated processes that issue file operations against device files; on a
// Paradice machine they run in guest VMs added with AddGuest, on the
// baselines they run directly on the machine's kernel.
package paradice

import (
	"fmt"
	"strings"

	"paradice/internal/cvd"
	"paradice/internal/devfile"
	"paradice/internal/device/audio"
	"paradice/internal/device/camera"
	"paradice/internal/device/gpu"
	"paradice/internal/device/input"
	"paradice/internal/device/nic"
	"paradice/internal/driver/drm"
	"paradice/internal/driver/evdev"
	"paradice/internal/driver/netmapdrv"
	"paradice/internal/driver/pcm"
	"paradice/internal/driver/uvc"
	"paradice/internal/handover"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/supervise"
	"paradice/internal/trace"
)

// Mode selects the CVD transport.
type Mode = cvd.Mode

// Transport modes (re-exported from the CVD).
const (
	Interrupts = cvd.Interrupts
	Polling    = cvd.Polling
	Adaptive   = cvd.Adaptive
)

// OS flavors for guests (re-exported from the kernel).
const (
	Linux   = kernel.Linux
	FreeBSD = kernel.FreeBSD
)

// Kind is the platform variant a Machine embodies.
type Kind int

// Platform kinds.
const (
	// KindParadice is the paper's system: driver VM + guest VMs + CVD.
	KindParadice Kind = iota
	// KindNative runs applications directly on the machine that owns the
	// devices — the "Native" baseline.
	KindNative
	// KindDeviceAssign runs applications in a VM that owns the devices
	// directly — the "Device-Assign" baseline (interrupts routed through
	// the hypervisor, everything else native).
	KindDeviceAssign
)

func (k Kind) String() string {
	switch k {
	case KindNative:
		return "native"
	case KindDeviceAssign:
		return "device-assign"
	default:
		return "paradice"
	}
}

// Config sizes and configures a Machine. Zero values select defaults.
type Config struct {
	// HostRAM is total system memory (default 512 MiB).
	HostRAM uint64
	// GuestRAM is each guest VM's memory (default 64 MiB).
	GuestRAM uint64
	// Mode selects the CVD transport (default Interrupts).
	Mode Mode
	// DataIsolation enables the §4.2/§5.3 device data isolation
	// configuration for the GPU.
	DataIsolation bool
	// GPUModel selects the card (Table 1: "hd6450" (default), "hd4650",
	// "x1300", "gm965"). Device data isolation requires the Evergreen-class
	// hd6450 (§5.3).
	GPUModel string
	// PollWindow is the CVD busy-poll window in polling mode (default the
	// paper's 200 µs; §5.1 notes the value was chosen empirically — the
	// "ablation" experiment sweeps it).
	PollWindow sim.Duration
	// Supervise, when non-nil, enables the driver-VM watchdog
	// (internal/supervise) with these settings; zero fields take the
	// supervise package defaults. The watchdog is a hypervisor-layer health
	// monitor that heartbeats every CVD channel, restarts the driver VM
	// automatically on failure under an exponential-backoff budget, and
	// degrades dead devices to fail-fast ENODEV when the budget is
	// exhausted. It keeps the event calendar busy, so supervised machines
	// should be driven with RunUntil (or stop the supervisor before
	// draining with Run). nil (the default) means unsupervised. Paradice
	// only. A supervised machine also fails every forwarded file operation
	// whose response takes longer than 50 ms with ETIMEDOUT; an
	// unsupervised one waits forever, as in the paper.
	Supervise *supervise.Config
	// MapCache enables the CVD bulk-transfer fast path: every read/write
	// buffer is granted once per file and mapped into the driver VM by the
	// backend, so repeated transfers to the same file skip the per-request
	// hypervisor-assisted copy. Off by default (the paper's §4.1 behavior);
	// the "bulk" experiment measures the crossover, which depends on how
	// often a buffer is reused.
	MapCache bool
	// CoalesceWindow batches CVD notifications in interrupt mode: the
	// frontend flushes one multi-entry submission doorbell as soon as
	// cvd.CoalesceBatch slots are pending or the window elapses, whichever is
	// first, and the backend batches completions per response IRQ under the
	// same policy. Zero disables batching. Polling mode and watchdog
	// heartbeats are unaffected.
	CoalesceWindow sim.Duration
	// TLB arms translation caching in the hypervisor. Its software TLB keeps
	// per-VM caches of guest-VA→system-PA translations, consulted by the
	// assisted-copy and buffer-mapping paths before the full per-page walks
	// of §5.2, with deterministic invalidation on page-table edits, EPT
	// changes, grant revocation, and driver-VM restart. Its grant cache
	// batches grant hypercalls: a file operation's whole grant vector is
	// declared in one hypervisor crossing, and backend validations hit the
	// cached vector instead of re-scanning the shared page. Off by default
	// (the paper's walk-every-time behavior); the "walkcache" experiment
	// measures the speedup.
	TLB bool
	// Admission maps a QoS class (kernel.Task.QoS) to the CVD ring occupancy
	// at which that class stops being admitted: once a device's ring holds
	// that many in-flight requests, further requests from the class fail
	// fast with EAGAIN instead of queueing. Classes absent from the map are
	// admitted until the ring is full (EBUSY). Applied to every frontend a
	// guest paravirtualizes. nil disables admission control (the default).
	Admission map[uint8]int
	// DriverShards partitions the machine's devices across N driver VMs
	// (default 1 — the paper's single driver VM of Figure 1(c)). The standard
	// devices are pinned round-robin across shards at boot; a harness device
	// registered via OnDriverVMBoot goes where PinDevice pins it, and to
	// shard 0 when it is not pinned. Each shard has its own kernel, its own CVD
	// backends, its own supervisor (under Supervise), and restarts or hands
	// over independently, so one shard's outage leaves the other shards'
	// guests undisturbed. Paradice machines only; the baselines always run 1.
	DriverShards int
	// Workers caps each driver-VM shard's handler set (cvd.Pool), the threads
	// that run forwarded operations. Zero means uncapped: one thread per
	// operation in flight, the paper's behavior. At the cap, operations wait
	// in per-channel FIFO queues drained round-robin, which bounds driver-VM
	// threads and isolates quiet guests from a hot one.
	Workers int
}

// supervisedDeadline bounds each forwarded file operation's wait for its
// response on a supervised machine: a stuck request fails with ETIMEDOUT
// instead of blocking its issuer forever, so detection by timeout is never
// slower than detection by the watchdog.
const supervisedDeadline = 50 * sim.Millisecond

func (c Config) withDefaults() Config {
	if c.HostRAM == 0 {
		c.HostRAM = 512 << 20
	}
	if c.GuestRAM == 0 {
		c.GuestRAM = 64 << 20
	}
	if c.DriverShards < 1 {
		c.DriverShards = 1
	}
	return c
}

// Standard device paths on every Machine.
const (
	PathGPU      = "/dev/dri/card0"
	PathMouse    = "/dev/input/event0"
	PathKeyboard = "/dev/input/event1"
	PathCamera   = "/dev/video0"
	PathAudio    = "/dev/snd/pcmC0D0p"
	PathNetmap   = "/dev/netmap"
)

// standardPaths are the standard devices in canonical class order: build
// places them round-robin across driver-VM shards in this order, and
// resetShardDevices resets them in it.
var standardPaths = []string{PathGPU, PathNetmap, PathMouse, PathKeyboard, PathCamera, PathAudio}

// DriverShard is one driver VM of a (possibly sharded) machine: its VM and
// kernel, and the handler set shared by every CVD backend in it (capped at
// Config.Workers). A restart or handover of the shard replaces VM, K, and
// Pool in place; the DriverShard pointer itself is stable for the machine's
// lifetime.
type DriverShard struct {
	Index int
	VM    *hv.VM
	K     *kernel.Kernel
	Pool  *cvd.Pool
}

// Machine is one assembled platform.
type Machine struct {
	Kind Kind
	Env  *sim.Env
	HV   *hv.Hypervisor

	// DriverVM/DriverK host the real drivers (and, on the baselines, the
	// applications too). On a sharded machine they alias shard 0.
	DriverVM *hv.VM
	DriverK  *kernel.Kernel

	// Devices and their drivers.
	GPU      *gpu.GPU
	DRM      *drm.Driver
	NIC      *nic.NIC
	Netmap   *netmapdrv.Driver
	Mouse    *input.Device
	Evdev    *evdev.Driver
	Keyboard *input.Device
	Kbdev    *evdev.Driver
	Camera   *camera.Device
	UVC      *uvc.Driver
	Audio    *audio.Device
	PCM      *pcm.Driver

	// GPUDomain and MCGate are the isolation handles for the GPU.
	GPUDomain *iommu.Domain
	MCGate    *hv.Gate

	cfg        Config
	gpuModel   drm.Model
	drmSpec    map[devfile.IoctlCmd]*ioctlan.CmdSpec
	guests     []*Guest
	foreground *Guest

	// Driver-VM sharding: the shards (shard 0 aliased by DriverVM/DriverK)
	// and the device pins, path → shard; an unpinned path goes to shard 0.
	shards []*DriverShard
	pins   map[string]int

	// Driver-VM restart/supervision state. replacing is the shard a
	// restart or handover is replacing, nil when none runs: it is the
	// lifecycle lock, and Paravirtualize refuses that shard's devices. One
	// supervisor per shard, in shard order, or none when the machine is
	// unsupervised.
	replacing    *DriverShard
	restartEpoch uint64
	supervisors  []*supervise.Supervisor
	// handovers is the machine's planned-handover episode log (committed and
	// aborted alike), in order.
	handovers []handover.Episode
	// onDriverBoot hooks run against every freshly booted driver kernel
	// (construction, restart replacement, handover successor).
	onDriverBoot []func(*kernel.Kernel) error
}

// vramBase is where the GPU aperture sits in system-physical space, clear
// of host RAM.
const vramBase = 0x8_0000_0000

// driverRAM is each driver VM's (or the native machine's) memory.
const driverRAM = 64 << 20

// New builds a Paradice machine: hypervisor, driver VM with all five device
// classes assigned, drivers loaded, ready for AddGuest.
func New(cfg Config) (*Machine, error) { return build(KindParadice, cfg) }

// NewNative builds the native baseline: the same devices and drivers on a
// bare machine (interrupts at native latency, no CVD, no hypervisor in the
// data path).
func NewNative(cfg Config) (*Machine, error) { return build(KindNative, cfg) }

// NewDeviceAssignment builds the direct device assignment baseline: one VM
// owns the devices; interrupts route through the hypervisor.
func NewDeviceAssignment(cfg Config) (*Machine, error) { return build(KindDeviceAssign, cfg) }

func build(kind Kind, cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv()
	h := hv.New(env, cfg.HostRAM)
	if cfg.TLB {
		// Armed before any VM exists, so every VM — driver and guests alike —
		// gets its translation cache and invalidation hooks from creation.
		h.EnableTLB()
	}
	m := &Machine{Kind: kind, Env: env, HV: h, cfg: cfg}

	// Create the devices once — they are hardware and survive driver VM
	// restarts. The GPU's memory size is the model's.
	var err error
	m.gpuModel, err = drm.LookupModel(cfg.GPUModel)
	if err != nil {
		return nil, err
	}
	m.GPU = gpu.New(env, h.Phys, vramBase, m.gpuModel.VRAM)
	m.NIC = nic.New(env)
	mouseLat := perf.CostVMExitIRQ
	if kind == KindNative {
		mouseLat = perf.CostNativeIRQ
	}
	m.Mouse = input.New(env, "mouse", sim.Duration(mouseLat))
	m.Keyboard = input.New(env, "keyboard", sim.Duration(mouseLat))
	m.Camera = camera.New(env)
	m.Audio = audio.New(env)

	m.drmSpec, err = drm.AnalyzedSpecs()
	if err != nil {
		return nil, err
	}

	// Device placement across driver-VM shards. The baselines always run a
	// single "shard" (their one machine/VM owns everything); on a Paradice
	// machine the standard devices go round-robin in canonical class order,
	// so e.g. 2 shards split GPU+input from NIC+camera+audio.
	if kind != KindParadice {
		m.cfg.DriverShards = 1
	}
	m.pins = make(map[string]int)
	for i, path := range standardPaths {
		m.pins[path] = i % m.cfg.DriverShards
	}
	m.shards = make([]*DriverShard, m.cfg.DriverShards)
	for i := range m.shards {
		m.shards[i] = &DriverShard{Index: i}
	}
	for i := range m.shards {
		sh, err := m.bootShard(i, true)
		if err != nil {
			return nil, err
		}
		m.installShard(sh)
	}
	if cfg.Supervise != nil {
		if kind != KindParadice {
			return nil, fmt.Errorf("paradice: supervision requires a driver VM (Paradice machines only)")
		}
		// One supervisor per shard, each sweeping (and restarting) only its
		// own shard's channels. A panic on a CVD backend proc goes to the
		// supervisor of the shard named by the proc's "@<driver kernel>"
		// suffix, so it charges that shard's restart budget alone.
		for _, sh := range m.shards {
			m.supervisors = append(m.supervisors, supervise.Start(env, shardTarget{m: m, idx: sh.Index}, *cfg.Supervise))
		}
		env.OnProcPanic = func(pp *sim.ProcPanic) bool {
			for i, sh := range m.shards {
				if strings.HasSuffix(pp.Proc, "@"+sh.K.Name) {
					return m.supervisors[i].HandleProcPanic(pp)
				}
			}
			return false
		}
	}
	return m, nil
}

// bootShard boots a driver VM and kernel for shard i, replays the
// OnDriverVMBoot hooks, and makes its handler set, which spawns threads on
// demand. With attach it first assigns the shard's devices to the new VM and
// attaches their drivers (machine construction, a crash restart); a planned
// handover boots without, side-by-side with the predecessor that still owns
// the devices, and attaches at its switch. Shard 0 keeps the seed's "driver"
// name (its generations are byte-compatible with the unsharded machine);
// shard i > 0 is "driver<i+1>".
func (m *Machine) bootShard(i int, attach bool) (DriverShard, error) {
	name := "driver"
	if i > 0 {
		name = fmt.Sprintf("driver%d", i+1)
	}
	sh := DriverShard{Index: i}
	var err error
	if sh.VM, err = m.HV.CreateVM(name, driverRAM); err != nil {
		return sh, err
	}
	sh.K = kernel.New(name, kernel.Linux, m.Env, sh.VM.Space, driverRAM)
	if m.Kind != KindNative {
		// Threads in a VM pay the vCPU-kick penalty on wake-ups.
		sh.K.WakePenalty = perf.CostVMExitIRQ
	}
	if attach {
		if err := m.attachDrivers(sh.VM, sh.K, i); err != nil {
			return sh, err
		}
	}
	for _, fn := range m.onDriverBoot {
		if err := fn(sh.K); err != nil {
			return sh, err
		}
	}
	sh.Pool = cvd.NewPool(sh.K, m.cfg.Workers)
	return sh, nil
}

// installShard makes a booted driver VM its shard's serving one; shard 0
// doubles as the machine's DriverVM/DriverK.
func (m *Machine) installShard(sh DriverShard) {
	*m.shards[sh.Index] = sh
	if sh.Index == 0 {
		m.DriverVM, m.DriverK = sh.VM, sh.K
	}
}

// Shards returns the machine's driver-VM shards (length 1 unless
// Config.DriverShards asked for more).
func (m *Machine) Shards() []*DriverShard { return m.shards }

// ShardFor returns the driver-VM shard serving a device path: the shard it
// is pinned to (the standard devices are pinned at boot, others by
// PinDevice), shard 0 when it is not pinned.
func (m *Machine) ShardFor(path string) *DriverShard {
	return m.shards[m.pins[path]]
}

// PinDevice routes a device path to a specific driver-VM shard instead of
// shard 0. Call before any guest paravirtualizes the path; the
// device itself must be registered in that shard's kernel (OnDriverVMBoot
// hooks run against every shard, so hook-installed devices qualify
// everywhere).
func (m *Machine) PinDevice(path string, shard int) error {
	if m.Kind != KindParadice {
		return ErrNoDriverVM
	}
	if shard < 0 || shard >= len(m.shards) {
		return fmt.Errorf("paradice: shard %d out of range (machine has %d)", shard, len(m.shards))
	}
	m.pins[path] = shard
	return nil
}

// OnDriverVMBoot registers fn to run against the driver kernel of every
// driver VM this machine boots from now on — restart replacements and
// handover successors alike, in every shard — and runs it against each
// current driver kernel immediately. Harnesses use it to install auxiliary
// devices (e.g. the load sink) that must exist in every driver-VM
// generation, or a restart or handover cannot bind the channel to the
// replacement kernel.
func (m *Machine) OnDriverVMBoot(fn func(*kernel.Kernel) error) error {
	if m.Kind != KindParadice {
		return ErrNoDriverVM
	}
	m.onDriverBoot = append(m.onDriverBoot, fn)
	for _, sh := range m.shards {
		if err := fn(sh.K); err != nil {
			return err
		}
	}
	return nil
}

// attachDrivers assigns shard's devices to the given driver VM and attaches
// their drivers, replacing the machine's driver handles for those devices.
// From this point the shard's devices interrupt into drvVM and DMA through
// its domains — the previous driver VM, if any, no longer serves them. On a
// single-shard machine every device belongs to shard 0 and this is the full
// seed attach sequence.
func (m *Machine) attachDrivers(drvVM *hv.VM, drvK *kernel.Kernel, shard int) error {
	owns := func(path string) bool { return m.pins[path] == shard }
	// irqFor wires a device interrupt to a driver-VM ISR with the
	// platform's delivery latency.
	irqFor := func(isr func()) func() {
		if m.Kind == KindNative {
			return func() { m.Env.After(perf.CostNativeIRQ, isr) }
		}
		vec := drvVM.AllocVector()
		drvVM.RegisterISR(vec, isr)
		return func() { m.HV.DeviceInterrupt(drvVM, vec) }
	}

	// GPU + DRM.
	if owns(PathGPU) {
		bars := []hv.BAR{{Name: "gpu-vram", SPA: vramBase, Size: m.GPU.VRAMSize()}}
		assign := m.HV.AssignDevice
		if m.cfg.DataIsolation {
			assign = m.HV.AssignDeviceIsolated
		}
		dom, gpas, err := assign(drvVM, "gpu", bars)
		if err != nil {
			return err
		}
		m.GPUDomain = dom
		var gpuRaise func()
		drmDrv, err := drm.AttachModel(drvK, m.GPU, m.gpuModel, gpas[0], func(isr func()) {
			gpuRaise = irqFor(isr)
		})
		if err != nil {
			return err
		}
		m.DRM = drmDrv
		m.GPU.Connect(&iommu.DMA{Dom: dom, Phys: m.HV.Phys, Env: m.Env}, func() { gpuRaise() })
		m.MCGate = hv.NewGate("gpu-mc")
		if m.cfg.DataIsolation {
			// The hypervisor takes the MC register page away from the driver
			// VM (§5.3 change iii) and the driver switches to the
			// isolation-compatible configuration.
			m.MCGate.Revoke()
			if err := m.DRM.EnableDataIsolation(m.HV, drvVM, dom, m.MCGate); err != nil {
				return err
			}
		}
	}

	// NIC + netmap.
	if owns(PathNetmap) {
		nicDom, _, err := m.HV.AssignDevice(drvVM, "nic", nil)
		if err != nil {
			return err
		}
		m.NIC.Connect(&iommu.DMA{Dom: nicDom, Phys: m.HV.Phys, Env: m.Env})
		m.Netmap, err = netmapdrv.Attach(drvK, m.NIC)
		if err != nil {
			return err
		}
	}

	// Input devices + evdev.
	if owns(PathMouse) {
		m.Evdev = evdev.Attach(drvK, m.Mouse, PathMouse)
	}
	if owns(PathKeyboard) {
		m.Kbdev = evdev.Attach(drvK, m.Keyboard, PathKeyboard)
	}

	// Camera + UVC.
	if owns(PathCamera) {
		camDom, _, err := m.HV.AssignDevice(drvVM, "camera", nil)
		if err != nil {
			return err
		}
		m.Camera.Connect(&iommu.DMA{Dom: camDom, Phys: m.HV.Phys, Env: m.Env})
		m.UVC = uvc.Attach(drvK, m.Camera, PathCamera)
	}

	// Audio + PCM.
	if owns(PathAudio) {
		audDom, _, err := m.HV.AssignDevice(drvVM, "audio", nil)
		if err != nil {
			return err
		}
		m.Audio.Connect(&iommu.DMA{Dom: audDom, Phys: m.HV.Phys, Env: m.Env})
		m.PCM, err = pcm.Attach(drvK, m.Audio, PathAudio)
		if err != nil {
			return err
		}
	}
	return nil
}

// AppKernel returns the kernel applications run on for the baseline
// platforms. On a Paradice machine, use AddGuest and the Guest's kernel.
func (m *Machine) AppKernel() *kernel.Kernel {
	return m.DriverK
}

// Guests returns the guest VMs added so far.
func (m *Machine) Guests() []*Guest { return m.guests }

// StartTrace installs a fresh tracer on the machine's environment and
// returns it. Every layer a request touches — system call, CVD frontend,
// hypervisor, inter-VM interrupts, CVD backend, driver, device — emits spans
// and metrics into it from then on; export with trace.WriteChrome /
// WriteMetrics. Tracing reads the virtual clock but never advances it, so a
// traced run's timings are bit-identical to an untraced run of the same
// seed. Call StopTrace or Close when done.
func (m *Machine) StartTrace() *trace.Tracer {
	t := trace.New()
	trace.Install(m.Env, t)
	return t
}

// StopTrace detaches the machine's tracer, returning it (nil if none was
// installed). The returned tracer's events and metrics remain readable.
func (m *Machine) StopTrace() *trace.Tracer {
	t := trace.Get(m.Env)
	trace.Uninstall(m.Env)
	return t
}

// Tracer returns the machine's installed tracer, or nil.
func (m *Machine) Tracer() *trace.Tracer { return trace.Get(m.Env) }

// Run drives the simulation until the event calendar drains.
func (m *Machine) Run() { m.Env.Run() }

// RunUntil drives the simulation up to the given time.
func (m *Machine) RunUntil(t sim.Time) { m.Env.RunUntil(t) }

// Close releases the machine: it detaches any tracer and unwinds every
// simulation process still parked, so their goroutines exit and nothing
// pins the machine's memory. The machine cannot run again afterwards;
// closing twice is a no-op.
func (m *Machine) Close() {
	trace.Uninstall(m.Env)
	m.Env.Close()
}

// Errors.
var errNotParadice = fmt.Errorf("paradice: guests exist only on a Paradice machine")
