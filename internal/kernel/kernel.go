// Package kernel simulates the Unix-like OS kernels Paradice runs in: the
// driver VM kernel hosting real device drivers, and the guest VM kernels
// hosting applications. It provides processes with page-table-backed address
// spaces, a devfs with device files dispatching the classic file operations
// (read, write, ioctl, mmap, poll, fasync), wait queues, SIGIO delivery, and
// the user-memory access layer (copy_to_user and friends) whose wrapper
// stubs redirect marked tasks to the hypervisor — the mechanism of §5.2.
//
// Two flavors exist, Linux and FreeBSD, differing where the paper says they
// differ (§5.1): FreeBSD's mmap path must explicitly pass the virtual
// address range to the handler, and the file-operation tables are versioned.
package kernel

import (
	"fmt"
	"sort"

	"paradice/internal/mem"
	"paradice/internal/sim"
)

// Flavor selects the simulated OS personality.
type Flavor int

// Kernel flavors.
const (
	Linux Flavor = iota
	FreeBSD
)

func (f Flavor) String() string {
	if f == FreeBSD {
		return "freebsd"
	}
	return "linux"
}

// Kernel is one VM's operating system kernel.
type Kernel struct {
	Name   string
	Flavor Flavor
	Env    *sim.Env
	Space  *mem.GuestSpace // this VM's guest-physical view (EPT-backed)

	ramSize   uint64
	nextFrame mem.GuestPhys
	freeList  []mem.GuestPhys

	devfs   map[string]*DeviceNode
	sysinfo map[string]string
	nextPID int

	// freeBSDMmapPatch models the ~12 LoC the paper adds to the FreeBSD
	// kernel so mmap passes the virtual address range to the handler
	// (§5.1). On by default; tests disable it to show why it is needed.
	freeBSDMmapPatch bool

	// WakePenalty is added to every wait-queue wake-up. Zero on bare
	// metal; in a VM it models the vCPU kick the hypervisor performs to
	// make the woken thread run — the difference between the paper's
	// native (39 µs) and device-assignment (55 µs) mouse latencies.
	WakePenalty sim.Duration
}

// SetFreeBSDMmapPatch toggles the FreeBSD mmap address-range patch.
func (k *Kernel) SetFreeBSDMmapPatch(on bool) { k.freeBSDMmapPatch = on }

// DeviceNode is an entry in devfs: a path plus the driver's file operations.
type DeviceNode struct {
	Path string
	Ops  FileOps
	// Drv is the driver's per-device state, handed to every FopCtx.
	Drv any
}

// New boots a kernel over an EPT-backed guest-physical space with ramSize
// bytes of RAM mapped at guest-physical zero.
func New(name string, flavor Flavor, env *sim.Env, space *mem.GuestSpace, ramSize uint64) *Kernel {
	return &Kernel{
		Name:    name,
		Flavor:  flavor,
		Env:     env,
		Space:   space,
		ramSize: ramSize,
		// Guest-physical page zero is never handed out (the null page),
		// so a frame number of 0 can safely mean "none".
		nextFrame:        mem.PageSize,
		devfs:            make(map[string]*DeviceNode),
		sysinfo:          make(map[string]string),
		nextPID:          1,
		freeBSDMmapPatch: true,
	}
}

// AllocFrame returns a zeroed guest-physical page frame: a recycled one from
// the free list, or the next never-used one. Either is cleared before it is
// handed out, since a freed or otherwise dirtied frame may hold another
// owner's bytes (§5.3). A frame whose host page was never backed already
// reads as zero and stays unbacked (GuestSpace.ZeroPage), so a fresh frame
// costs no host memory until it is first written.
func (k *Kernel) AllocFrame() (mem.GuestPhys, error) {
	if n := len(k.freeList); n > 0 {
		gpa := k.freeList[n-1]
		k.freeList = k.freeList[:n-1]
		return gpa, k.Space.ZeroPage(gpa)
	}
	if uint64(k.nextFrame)+mem.PageSize > k.ramSize {
		return 0, fmt.Errorf("%s: out of memory (%d bytes RAM)", k.Name, k.ramSize)
	}
	gpa := k.nextFrame
	k.nextFrame += mem.PageSize
	return gpa, k.Space.ZeroPage(gpa)
}

// FreeFrame returns a frame to the kernel's free list.
func (k *Kernel) FreeFrame(gpa mem.GuestPhys) {
	k.freeList = append(k.freeList, gpa)
}

// RegisterDevice creates a device file in devfs. drv is the driver state
// made available to file operations via FopCtx.
func (k *Kernel) RegisterDevice(path string, ops FileOps, drv any) *DeviceNode {
	if _, dup := k.devfs[path]; dup {
		panic(fmt.Sprintf("%s: device %s already registered", k.Name, path))
	}
	n := &DeviceNode{Path: path, Ops: ops, Drv: drv}
	k.devfs[path] = n
	return n
}

// LookupDevice returns the devfs node for path, if present.
func (k *Kernel) LookupDevice(path string) (*DeviceNode, bool) {
	n, ok := k.devfs[path]
	return n, ok
}

// DevicePaths returns all registered device paths, sorted.
func (k *Kernel) DevicePaths() []string {
	var out []string
	for p := range k.devfs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// SetSysInfo publishes a device-information key, the simulated equivalent of
// a /sys (Linux) or /dev/pci (FreeBSD) entry. Device info modules (§5.1)
// populate these in guest VMs.
func (k *Kernel) SetSysInfo(key, value string) { k.sysinfo[key] = value }

// SysInfo reads a device-information key.
func (k *Kernel) SysInfo(key string) (string, bool) {
	v, ok := k.sysinfo[key]
	return v, ok
}
