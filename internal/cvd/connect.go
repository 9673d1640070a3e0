package cvd

import (
	"fmt"

	"paradice/internal/devfile"
	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/kernel"
	"paradice/internal/perf"
	"paradice/internal/sim"
)

// Config describes one paravirtualized device file: which guest sees it,
// which driver VM device backs it, and how the channel behaves.
type Config struct {
	HV       *hv.Hypervisor
	GuestVM  *hv.VM
	GuestK   *kernel.Kernel
	DriverVM *hv.VM
	DriverK  *kernel.Kernel

	// DevicePath is the real device file in the driver VM's devfs; the
	// guest's virtual device file has the same path.
	DevicePath string
	// Mode selects the interrupt, polling or adaptive transport.
	Mode Mode
	// Specs is the ioctl analyzer's output for the device's driver; ioctl
	// commands without a spec fall back to the command-number macros.
	Specs map[devfile.IoctlCmd]*ioctlan.CmdSpec
	// Grants is the guest's grant table, shared by all frontends in the
	// guest. If nil, a table page is allocated and registered.
	Grants *grant.Table
	// PollWindow is how long each side busy-polls the shared page before
	// sleeping, in polling mode. Zero selects the paper's empirically
	// chosen 200 µs (§5.1); the ablation experiment sweeps it. This and
	// the other durations below must not be negative.
	PollWindow sim.Duration
	// RequestDeadline bounds every forwarded operation's wait for its
	// response; a request that outlives it fails with ETIMEDOUT. Zero means
	// wait forever (the paper's behavior). A supervised Machine sets 50 ms,
	// so a guest blocked behind a dead backend unblocks on its own.
	RequestDeadline sim.Duration
	// MapCache enables the bulk-transfer fast path: every read/write data
	// buffer gets a long-lived bulk grant, and the backend maps it into the
	// driver VM once (validated through the grant table) and reuses the
	// mapping across requests to the same file. Whether that beats the
	// per-request assisted copy depends on reuse, not on size (the "Bulk
	// transfer" section of EXPERIMENTS.md). Cached mappings are invalidated
	// deterministically on grant revoke, file release, reconnect, and
	// driver-VM restart; misusing one faults exactly as a fresh map would.
	// Off by default — the paper's per-request assisted-copy behavior.
	MapCache bool
	// CoalesceWindow batches notifications in interrupt mode under a
	// size+deadline policy. The frontend flushes a multi-entry submission
	// descriptor, with one inter-VM IRQ for the batch, as soon as
	// CoalesceBatch slots are pending or the window after the first has
	// elapsed; the backend mirrors it on the completion side, so up to
	// CoalesceBatch responses share one response IRQ. The price is up to the
	// window in added latency per request. Zero disables batching. The
	// polling path and watchdog heartbeats are unaffected.
	CoalesceWindow sim.Duration
	// Admission maps a QoS class (kernel.Task.QoS) to the ring occupancy at
	// which that class stops being admitted: once the ring holds that many
	// in-flight requests, further requests from the class fail fast with
	// EAGAIN instead of queueing. Classes absent from the map are admitted
	// until the ring itself is full (EBUSY). nil disables admission control
	// — the seed behavior.
	Admission map[uint8]int
}

// CoalesceBatch is the size trigger of CoalesceWindow batching: how many
// pending submissions (or completions) flush at once without waiting out the
// window.
const CoalesceBatch = 8

// Connect builds a CVD channel: a shared ring page between the guest and
// driver VMs, interrupt vectors in both directions, the backend dispatcher
// in the driver VM, and a virtual device file in the guest's devfs backed by
// the frontend. Returns the frontend and backend halves. The first backend
// attaches exactly as every successor does (prepare, then bind), in a handler
// set of its own until Pool.Join moves it. Each fallible step undoes its own
// partial work, and a failure undoes every step before it.
func Connect(cfg Config) (*Frontend, *Backend, error) {
	if cfg.PollWindow < 0 || cfg.CoalesceWindow < 0 || cfg.RequestDeadline < 0 {
		return nil, nil, fmt.Errorf("cvd: negative PollWindow, CoalesceWindow or RequestDeadline for %s", cfg.DevicePath)
	}
	node, ok := cfg.DriverK.LookupDevice(cfg.DevicePath)
	if !ok {
		return nil, nil, fmt.Errorf("cvd: no device %s in %s", cfg.DevicePath, cfg.DriverK.Name)
	}
	if cfg.PollWindow == 0 {
		cfg.PollWindow = perf.PollWindow
	}

	// The ring page lives in guest memory and is shared into the driver VM.
	ringGPA, err := cfg.GuestK.AllocFrame()
	if err != nil {
		return nil, nil, err
	}
	fe := &Frontend{
		hv:         cfg.HV,
		guestVM:    cfg.GuestVM,
		guestK:     cfg.GuestK,
		ring:       page{acc: &grant.GuestAccessor{Space: cfg.GuestVM.Space, GPA: ringGPA}},
		specs:      cfg.Specs,
		pollWQ:     cfg.GuestK.NewWaitQueue(),
		policy:     policy{mode: cfg.Mode, window: cfg.PollWindow, coalesce: cfg.CoalesceWindow},
		deadline:   cfg.RequestDeadline,
		mapCache:   cfg.MapCache,
		hbEvent:    cfg.HV.Env.NewEvent(),
		drainEvent: cfg.HV.Env.NewEvent(),
		path:       cfg.DevicePath,
		vm:         cfg.GuestVM.Name,
		m:          newFeMetricNames(cfg.GuestVM.Name, cfg.DevicePath),
	}
	prep, err := prepare(fe, cfg.HV, cfg.DriverVM, cfg.DriverK, false)
	if err != nil {
		cfg.GuestK.FreeFrame(ringGPA)
		return nil, nil, err
	}
	fe.grants = cfg.Grants
	if fe.grants == nil {
		if fe.grants, err = NewGuestGrantTable(cfg.HV, cfg.GuestVM, cfg.GuestK); err != nil {
			prep.release()
			cfg.GuestK.FreeFrame(ringGPA)
			return nil, nil, err
		}
	}

	for i := range fe.respEvents {
		fe.respEvents[i] = cfg.HV.Env.NewEvent()
	}
	fe.SetAdmission(cfg.Admission)
	if fe.mapCache {
		fe.bulk = make(map[bulkKey]bulkGrant)
	}
	fe.vecResp = cfg.GuestVM.AllocVector()
	fe.vecNotif = cfg.GuestVM.AllocVector()
	be := prep.bind(node)
	cfg.GuestVM.RegisterISR(fe.vecResp, fe.scanDone)
	cfg.GuestVM.RegisterISR(fe.vecNotif, fe.handleNotifs)
	cfg.GuestK.RegisterDevice(cfg.DevicePath, fe, fe)
	return fe, be, nil
}

// NewGuestGrantTable allocates and registers a grant-table page for a
// guest. A Machine makes one per guest VM, shared by its frontends; Connect
// makes one when Config.Grants is nil. With the hypervisor's software TLB
// armed, the table subscribes to its VM's grant-validation cache here, so
// the frontends declare grant vectors in one batched crossing (declare).
func NewGuestGrantTable(h *hv.Hypervisor, guestVM *hv.VM, guestK *kernel.Kernel) (*grant.Table, error) {
	gpa, err := guestK.AllocFrame()
	if err != nil {
		return nil, err
	}
	if err := h.RegisterGrantTable(guestVM, gpa); err != nil {
		guestK.FreeFrame(gpa)
		return nil, err
	}
	t := grant.NewTable(&grant.GuestAccessor{Space: guestVM.Space, GPA: gpa})
	if h.TLBEnabled() {
		h.EnableGrantCache(guestVM, t)
	}
	return t, nil
}
