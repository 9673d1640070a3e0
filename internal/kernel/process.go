package kernel

import (
	"errors"
	"fmt"

	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/trace"
)

// User address-space layout (32-bit guests).
const (
	heapBase = mem.GuestVirt(0x0800_0000)
	mmapBase = mem.GuestVirt(0x4000_0000)
	mmapTop  = mem.GuestVirt(0xB000_0000)
)

// Process is a user process: an address space backed by a real guest page
// table, a file-descriptor table, and the VMAs of its memory mappings.
type Process struct {
	K    *Kernel
	PID  int
	Name string
	PT   *mem.PageTable
	Mem  *mem.VirtSpace

	fds     map[int]*File
	nextFD  int
	vmas    []*VMA
	heapPtr mem.GuestVirt
	mmapPtr mem.GuestVirt

	// sigio, when set, runs on SIGIO delivery (fasync notification).
	sigio func()
}

// VMA is one memory mapping in a process address space.
type VMA struct {
	Proc  *Process
	Start mem.GuestVirt
	Len   uint64
	File  *File
	Pgoff uint64 // file offset of Start, in pages
	// Private is driver state attached to the mapping.
	Private any
	// OnUnmap, if set, runs when the mapping is torn down — after the
	// owning kernel has destroyed its own page-table entries, matching the
	// ordering of §5.2. The CVD frontend uses it to forward the unmap.
	OnUnmap func(c *FopCtx, v *VMA) error

	mapped map[mem.GuestVirt]bool // pages populated via InsertPFN
}

// notePage records that the page at va has been populated.
func (v *VMA) notePage(va mem.GuestVirt) {
	if v.mapped == nil {
		v.mapped = make(map[mem.GuestVirt]bool)
	}
	v.mapped[va] = true
}

// MappedPages returns how many pages of the mapping are populated.
func (v *VMA) MappedPages() int { return len(v.mapped) }

// Contains reports whether va falls inside the mapping.
func (v *VMA) Contains(va mem.GuestVirt) bool {
	return va >= v.Start && uint64(va) < uint64(v.Start)+v.Len
}

// NewProcess creates a process with an empty address space.
func (k *Kernel) NewProcess(name string) (*Process, error) {
	allocGP := func() (mem.GuestPhys, error) { return k.AllocFrame() }
	pt, err := mem.NewPageTable(k.Space, allocGP)
	if err != nil {
		return nil, err
	}
	p := &Process{
		K:       k,
		PID:     k.nextPID,
		Name:    name,
		PT:      pt,
		Mem:     &mem.VirtSpace{PT: pt, Space: k.Space},
		fds:     make(map[int]*File),
		nextFD:  3,
		heapPtr: heapBase,
		mmapPtr: mmapBase,
	}
	k.nextPID++
	return p, nil
}

// Alloc reserves n bytes of user heap, eagerly backed by fresh frames, and
// returns its base address. Allocations are page-granular under the hood.
func (p *Process) Alloc(n int) (mem.GuestVirt, error) {
	if n <= 0 {
		return 0, EINVAL
	}
	base := p.heapPtr
	pages := mem.PagesSpanned(uint64(base), uint64(n))
	// Advance to the next page boundary past the allocation.
	p.heapPtr = mem.GuestVirt(mem.PageBase(uint64(base)+uint64(n)+mem.PageSize-1)) + mem.PageSize
	for i := uint64(0); i < pages; i++ {
		va := mem.GuestVirt(mem.PageBase(uint64(base))) + mem.GuestVirt(i*mem.PageSize)
		if p.PT.Mapped(va) {
			continue // page shared with tail of previous allocation
		}
		gpa, err := p.K.AllocFrame()
		if err != nil {
			return 0, err
		}
		if err := p.PT.Map(va, gpa, mem.PermRW); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// AllocBytes allocates user memory and initializes it with data.
func (p *Process) AllocBytes(data []byte) (mem.GuestVirt, error) {
	va, err := p.Alloc(len(data))
	if err != nil {
		return 0, err
	}
	return va, p.Mem.Write(va, data)
}

// reserveMmapRange picks an unused VA window for an mmap of length bytes.
func (p *Process) reserveMmapRange(length uint64) (mem.GuestVirt, error) {
	length = (length + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if uint64(p.mmapPtr)+length > uint64(mmapTop) {
		return 0, ENOMEM
	}
	base := p.mmapPtr
	p.mmapPtr += mem.GuestVirt(length)
	return base, nil
}

// FindVMA returns the mapping containing va.
func (p *Process) FindVMA(va mem.GuestVirt) (*VMA, bool) {
	for _, v := range p.vmas {
		if v.Contains(va) {
			return v, true
		}
	}
	return nil, false
}

// UserRead reads user memory with page-fault handling: a fault inside an
// mmap'ed device region invokes the driver's fault handler (through the CVD
// when the region is paravirtualized) and retries.
func (p *Process) UserRead(t *Task, va mem.GuestVirt, buf []byte) error {
	return p.userAccess(t, va, buf, false)
}

// UserWrite writes user memory with page-fault handling.
func (p *Process) UserWrite(t *Task, va mem.GuestVirt, data []byte) error {
	return p.userAccess(t, va, data, true)
}

func (p *Process) userAccess(t *Task, va mem.GuestVirt, buf []byte, write bool) error {
	// Every page the access spans may fault once (demand paging); anything
	// beyond that means a fault handler that is not making progress.
	limit := mem.PagesSpanned(uint64(va), uint64(len(buf))) + 2
	for attempt := uint64(0); ; attempt++ {
		var err error
		if write {
			err = p.Mem.Write(va, buf)
		} else {
			err = p.Mem.Read(va, buf)
		}
		var pf *mem.PageFault
		if err == nil || !errors.As(err, &pf) {
			return err
		}
		if attempt >= limit {
			return EFAULT
		}
		if err := p.handleFault(t, pf.VA); err != nil {
			return err
		}
	}
}

// handleFault resolves a page fault at va by delegating to the VMA's file.
// A fault taken inside a system call belongs to that call's request. One
// taken by a plain user access is a request of its own: its proc serves a
// fresh request ID and closes a root group "fault <path>" with the task's
// class and the fault's errno, as a system call does, but without the
// system-call charge.
func (p *Process) handleFault(t *Task, va mem.GuestVirt) (err error) {
	v, ok := p.FindVMA(va)
	if !ok || v.File == nil {
		return EFAULT
	}
	if tr := trace.Get(p.K.Env); tr != nil && t.sp.RID() == 0 {
		t.sp.SetRID(tr.NewRID())
		start := tr.Now()
		defer func() { t.opEnd(tr, start, "fault", v.File.Node.Path, err) }()
	}
	perf.Spend(p.K.Env, p.K.Name, trace.LayerSyscall, "page-fault", perf.CostPageFault)
	return v.File.Node.Ops.Fault(&FopCtx{Task: t, File: v.File}, v, mem.GuestVirt(mem.PageBase(uint64(va))))
}

// OnSIGIO installs the process's SIGIO handler (the fasync consumer).
func (p *Process) OnSIGIO(fn func()) { p.sigio = fn }

// DeliverSIGIO schedules the process's SIGIO handler after the
// signal-delivery (scheduler wake-up) latency. Called by the kernel when a
// driver — or the CVD frontend, for a forwarded notification — kills fasync.
func (p *Process) DeliverSIGIO() {
	if p.sigio == nil {
		return
	}
	p.K.Env.After(perf.CostWakeup+p.K.WakePenalty, p.sigio)
}

func (p *Process) String() string {
	return fmt.Sprintf("%s/pid%d(%s)", p.K.Name, p.PID, p.Name)
}
