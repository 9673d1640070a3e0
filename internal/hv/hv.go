// Package hv implements the Type-I hypervisor of Paradice's design
// (Figure 1(c)): VM lifecycle with EPT-backed memory, device assignment
// through the IOMMU, inter-VM interrupts and shared pages for the CVD
// transport, the hypervisor-assisted memory operations of §5.2 with the
// strict grant-table checks of §4.1, and the protected memory regions of
// §4.2 for device data isolation.
package hv

import (
	"fmt"

	"paradice/internal/faults"
	"paradice/internal/grant"
	"paradice/internal/iommu"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// VMID identifies a virtual machine.
type VMID int

// Hypervisor is the bare-metal hypervisor owning physical memory, EPTs, and
// the IOMMU.
type Hypervisor struct {
	Env  *sim.Env
	Phys *mem.PhysMem

	hostAlloc *mem.Allocator
	vms       []*VM

	// Cross-VM mmap records: (guest, process page-table root, va) -> gpa,
	// kept so unmap can destroy the EPT entry the map created.
	mapped map[mapKey]mem.GuestPhys

	// Protected memory region bookkeeping (device data isolation).
	regions    map[iommu.RegionID]*Region
	nextRegion iommu.RegionID
	protPages  map[uint64]iommu.RegionID // SPA frame -> owning region

	// tlbEnabled arms the software TLB (tlb.go) on every existing and
	// future VM.
	tlbEnabled bool
}

type mapKey struct {
	vm     VMID
	ptRoot mem.GuestPhys
	va     mem.GuestVirt
}

// VM is one virtual machine: its EPT, its guest-physical space view, and
// its interrupt lines.
type VM struct {
	ID      VMID
	Name    string
	EPT     *mem.EPT
	Space   *mem.GuestSpace
	RAM     uint64
	RAMBase mem.SysPhys // contiguous system-physical backing

	hv       *Hypervisor
	isr      map[int]func()
	grantAcc *grant.PhysAccessor // registered grant-table page (nil = none)
	barNext  mem.GuestPhys
	nextVec  int

	// Software TLB and grant-validation cache (tlb.go); nil until armed via
	// EnableTLB / EnableGrantCache, and every consult is nil-gated, so the
	// dormant paths stay byte-identical to the seed.
	tlb        *vmTLB
	grantCache *grantCache
}

// AllocVector reserves a fresh interrupt vector on this VM.
func (vm *VM) AllocVector() int {
	vm.nextVec++
	return 31 + vm.nextVec
}

// Guest-physical layout constants.
const (
	// barWindow is where assigned-device BARs appear in a VM's guest-
	// physical space.
	barWindow = mem.GuestPhys(0xC000_0000)
	// mapWindow is where the hypervisor places cross-VM mmap and shared
	// pages (an unused guest-physical hole; §5.2: "any guest physical page
	// address ... as long as it is not used by the guest OS").
	mapWindowLo = mem.GuestPhys(0x8000_0000)
	mapWindowHi = mem.GuestPhys(0xC000_0000)
)

// New creates a hypervisor owning hostRAM bytes of system memory.
func New(env *sim.Env, hostRAM uint64) *Hypervisor {
	phys := mem.NewPhysMem()
	return &Hypervisor{
		Env:        env,
		Phys:       phys,
		hostAlloc:  phys.NewAllocator("host-ram", 0x1_0000_0000, hostRAM),
		mapped:     make(map[mapKey]mem.GuestPhys),
		regions:    make(map[iommu.RegionID]*Region),
		nextRegion: iommu.RegionGlobal + 1,
		protPages:  make(map[uint64]iommu.RegionID),
	}
}

// CreateVM allocates a VM with ram bytes of memory mapped at guest-physical
// zero.
func (h *Hypervisor) CreateVM(name string, ram uint64) (*VM, error) {
	if !mem.PageAligned(ram) || ram == 0 {
		return nil, fmt.Errorf("hv: VM RAM must be a positive page multiple, got %d", ram)
	}
	base, err := h.hostAlloc.AllocPages(int(ram / mem.PageSize))
	if err != nil {
		return nil, err
	}
	ept := mem.NewEPT()
	if err := ept.MapRange(0, base, int(ram/mem.PageSize), mem.PermRW); err != nil {
		return nil, err
	}
	vm := &VM{
		ID:      VMID(len(h.vms) + 1),
		Name:    name,
		EPT:     ept,
		Space:   &mem.GuestSpace{Phys: h.Phys, EPT: ept},
		RAM:     ram,
		RAMBase: base,
		hv:      h,
		isr:     make(map[int]func()),
		barNext: barWindow,
	}
	h.vms = append(h.vms, vm)
	if h.tlbEnabled {
		h.armTLB(vm)
	}
	return vm, nil
}

// VMs returns all created VMs.
func (h *Hypervisor) VMs() []*VM { return h.vms }

// RegisterISR installs the VM's handler for an interrupt vector.
func (vm *VM) RegisterISR(vector int, fn func()) { vm.isr[vector] = fn }

// tracer returns the environment's tracer (nil when tracing is off) and the
// request served by the process currently in hypervisor context, so an
// interrupt's projected delivery span lands on the trace of the request that
// raised it. Charged work records its own span through perf.Spend.
func (h *Hypervisor) tracer() (*trace.Tracer, uint64) {
	tr := trace.Get(h.Env)
	if tr == nil {
		return nil, 0
	}
	return tr, h.Env.CurrentProc().RID()
}

// SendInterrupt raises an inter-VM interrupt into the target VM. The
// handler runs after the inter-VM interrupt delivery latency; the sender
// continues immediately (the send itself is a cheap event-channel kick,
// charged as a hypercall).
func (h *Hypervisor) SendInterrupt(target *VM, vector int) {
	perf.Spend(h.Env, "hv", trace.LayerHV, "hypercall", perf.CostHypercall)
	tr, rid := h.tracer()
	fn := target.isr[vector]
	if fn == nil {
		return // spurious interrupt: no handler registered
	}
	if faults.Point(h.Env, "hv.irq.drop") != nil {
		tr.Add("hv.irq.dropped", 1)
		return // injected fault: the interrupt is lost in delivery
	}
	if tr != nil {
		now := tr.Now()
		tr.Span(rid, target.Name, trace.LayerIRQ, "inter-vm-irq", now, now.Add(perf.CostInterVMIRQ))
		tr.Add("hv.irq.sent", 1)
	}
	h.Env.After(perf.CostInterVMIRQ, fn)
	if faults.Point(h.Env, "hv.irq.dup") != nil {
		// Injected fault: the interrupt is delivered twice. ISRs must be
		// idempotent (re-scanning the ring, re-triggering a fired event).
		// Traced as an instant, not a second span: the duplicate rides
		// concurrently with the real delivery and must not double-count in
		// the request's latency budget.
		tr.Add("hv.irq.duplicated", 1)
		h.Env.After(perf.CostInterVMIRQ, fn)
	}
}

// DeviceInterrupt raises a (pass-through) device interrupt into the VM the
// device is assigned to, modeling the hypervisor-routed delivery latency of
// device assignment.
func (h *Hypervisor) DeviceInterrupt(target *VM, vector int) {
	fn := target.isr[vector]
	if fn == nil {
		return
	}
	if tr, rid := h.tracer(); tr != nil {
		now := tr.Now()
		tr.Span(rid, target.Name, trace.LayerIRQ, "device-irq", now, now.Add(perf.CostVMExitIRQ))
		tr.Add("hv.irq.device", 1)
	}
	h.Env.After(perf.CostVMExitIRQ, fn)
}

// SharePage maps the owner VM's page at gpa into the peer VM and returns
// the peer's guest-physical address for it. This is how the CVD frontend
// and backend obtain their shared ring page (§5.1).
func (h *Hypervisor) SharePage(owner *VM, gpa mem.GuestPhys, peer *VM) (mem.GuestPhys, error) {
	spa, err := owner.EPT.Translate(gpa, 0)
	if err != nil {
		return 0, err
	}
	peerGPA, err := peer.EPT.FindUnusedRange(mapWindowLo, mapWindowHi, 1)
	if err != nil {
		return 0, err
	}
	if err := peer.EPT.Map(peerGPA, mem.SysPhys(mem.PageBase(uint64(spa))), mem.PermRW); err != nil {
		return 0, err
	}
	return peerGPA, nil
}

// RegisterGrantTable records the guest's grant-table page (§5.1: "a single
// memory page shared between the frontend VM and the hypervisor"). A second
// would fail every grant declared in the first, so registering one fails.
func (h *Hypervisor) RegisterGrantTable(vm *VM, gpa mem.GuestPhys) error {
	if vm.grantAcc != nil {
		return fmt.Errorf("hv: VM %s already has a grant table", vm.Name)
	}
	spa, err := vm.EPT.Translate(gpa, 0)
	if err != nil {
		return err
	}
	vm.grantAcc = &grant.PhysAccessor{Phys: h.Phys, SPA: mem.SysPhys(mem.PageBase(uint64(spa)))}
	return nil
}

// BAR describes a device register or memory aperture to map into a VM.
type BAR struct {
	Name string
	SPA  mem.SysPhys
	Size uint64
}

// AssignDevice gives a VM direct access to a device: its BARs are mapped
// into the VM's guest-physical space and an IOMMU domain is created that
// lets the device DMA to every physical address of that VM (§3.1). Returns
// the domain and the guest-physical address of each BAR.
func (h *Hypervisor) AssignDevice(vm *VM, dev string, bars []BAR) (*iommu.Domain, []mem.GuestPhys, error) {
	return h.assignDevice(vm, dev, bars, true)
}

// AssignDeviceIsolated assigns a device for the device data isolation
// configuration: the hypervisor creates no initial IOMMU mappings, and DMA
// becomes possible only through pages the driver explicitly asks to add to
// protected memory regions (§4.2).
func (h *Hypervisor) AssignDeviceIsolated(vm *VM, dev string, bars []BAR) (*iommu.Domain, []mem.GuestPhys, error) {
	return h.assignDevice(vm, dev, bars, false)
}

func (h *Hypervisor) assignDevice(vm *VM, dev string, bars []BAR, blanketDMA bool) (*iommu.Domain, []mem.GuestPhys, error) {
	dom := iommu.NewDomain(dev)
	if blanketDMA {
		if err := dom.MapRange(0, vm.RAMBase, int(vm.RAM/mem.PageSize), mem.PermRW); err != nil {
			return nil, nil, err
		}
	}
	gpas := make([]mem.GuestPhys, len(bars))
	for i, b := range bars {
		if !mem.PageAligned(uint64(b.SPA)) || !mem.PageAligned(b.Size) {
			return nil, nil, fmt.Errorf("hv: BAR %s not page aligned", b.Name)
		}
		gpa := vm.barNext
		vm.barNext += mem.GuestPhys(b.Size)
		if b.Size > 0 {
			if err := vm.EPT.MapRange(gpa, b.SPA, int(b.Size/mem.PageSize), mem.PermRW); err != nil {
				return nil, nil, err
			}
		}
		gpas[i] = gpa
	}
	return dom, gpas, nil
}
