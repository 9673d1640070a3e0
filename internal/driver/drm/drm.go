// Package drm implements a Radeon-like DRM GPU driver against the
// simulated Evergreen-class device: GEM buffer objects, a command-submission
// ioctl with the nested chunk copies that motivate the paper's ioctl
// analyzer (§4.1), fence waits, mmap of buffer objects via the page-fault
// path, and — in di.go — the ~400 LoC of device data isolation
// modifications described in §5.3.
//
// Like a real driver, it touches process memory only through the kernel's
// copy_to_user/copy_from_user/insert_pfn layer, so it runs unmodified both
// natively and behind the CVD with marked tasks.
package drm

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/device/gpu"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// The driver's ioctl commands ('d' is the DRM magic).
var (
	// IoctlGemCreate: in {size u64, flags u32, pad u32}, out {handle u32 ...}.
	IoctlGemCreate = devfile.IOWR('d', 0x01, 16)
	// IoctlGemMmap: in {handle u32, pad u32, ...}, out {pgoff u64 at offset 8}.
	IoctlGemMmap = devfile.IOWR('d', 0x02, 16)
	// IoctlCS: command submission; header {nchunks u32, pad u32, chunksPtr
	// u64}. The chunk array and chunk data are nested copies.
	IoctlCS = devfile.IOW('d', 0x03, 16)
	// IoctlWaitFence: in {seq u32, timeoutMs u32}.
	IoctlWaitFence = devfile.IOW('d', 0x04, 8)
	// IoctlInfo: out {vendor u32, device u32, vramSize u64, fence u32, ...}.
	IoctlInfo = devfile.IOR('d', 0x05, 32)
	// IoctlGemClose: in {handle u32, pad u32}.
	IoctlGemClose = devfile.IOW('d', 0x06, 8)
)

// CS chunk kinds.
const (
	ChunkIB = 1 // command words
)

// PCI identity of the paper's primary card (Radeon HD 6450, Caicos).
const (
	VendorATI  = 0x1002
	DeviceHD64 = 0x6779
)

// Model returns the card identity the driver was attached for.
func (d *Driver) Model() Model { return d.model }

// bo is a GEM buffer object in VRAM.
type bo struct {
	handle  uint32
	size    uint64
	vramOff uint64
}

// fileState is the per-open state (GEM handles are per file descriptor).
type fileState struct {
	bos    map[uint32]*bo
	nextBO uint32
}

// Driver is the DRM driver instance bound to one GPU.
type Driver struct {
	kernel.BaseOps
	K   *kernel.Kernel
	GPU *gpu.GPU

	// vramGPA is where the VRAM BAR appears in the driver VM's
	// guest-physical space; insert_pfn hands out pages from it.
	vramGPA mem.GuestPhys

	fenceWQ   *kernel.WaitQueue
	nextFence uint32

	// VRAM allocation state; under data isolation each guest allocates
	// from its own partition.
	vramNext uint64
	vramEnd  uint64

	// irqReasonGPA is the system-memory page the device writes interrupt
	// reasons to (0 when disabled for data isolation).
	irqReasonGPA mem.GuestPhys

	// model is the card identity the driver exposes (Table 1's GPUs).
	model Model

	di *dataIsolation // nil unless device data isolation is enabled

	// Software VSync emulation state (vsync.go).
	vsyncOn     bool
	vsyncArmed  bool
	vsyncPeriod sim.Duration
	vsyncCount  uint32
	vsyncWQ     *kernel.WaitQueue

	// Stats.
	Submissions int
	VSyncs      int
}

// VRAMGPA returns where the GPU's VRAM BAR appears in the driver VM's
// guest-physical space.
func (d *Driver) VRAMGPA() mem.GuestPhys { return d.vramGPA }

// Attach creates the driver for a GPU whose VRAM BAR appears at vramGPA in
// the driver VM, allocates the interrupt-reason buffer, and registers the
// device file. registerISR installs the driver's interrupt handler on the
// device's vector.
func Attach(k *kernel.Kernel, g *gpu.GPU, vramGPA mem.GuestPhys, registerISR func(func())) (*Driver, error) {
	return AttachModel(k, g, ModelHD6450, vramGPA, registerISR)
}

// AttachModel attaches the driver for a specific card model (Table 1 lists
// four makes and models behind the same device file boundary).
func AttachModel(k *kernel.Kernel, g *gpu.GPU, model Model, vramGPA mem.GuestPhys, registerISR func(func())) (*Driver, error) {
	d := &Driver{
		K:       k,
		GPU:     g,
		model:   model,
		vramGPA: vramGPA,
		fenceWQ: k.NewWaitQueue(),
		vramEnd: g.VRAMSize(),
	}
	reason, err := k.AllocFrame()
	if err != nil {
		return nil, err
	}
	d.irqReasonGPA = reason
	// Bus address == driver guest-physical address under device assignment.
	g.SetIRQReasonBuffer(iommu.BusAddr(reason))
	registerISR(d.isr)
	k.RegisterDevice("/dev/dri/card0", d, d)
	return d, nil
}

// isr handles the device interrupt: read the reason from the system-memory
// ring (normal operation) or treat everything as a fence (data isolation,
// §5.3), then wake fence waiters.
func (d *Driver) isr() {
	reason := uint32(gpu.IRQFence)
	if d.irqReasonGPA != 0 {
		var b [4]byte
		if err := d.K.Space.Read(d.irqReasonGPA, b[:]); err == nil {
			reason = binary.LittleEndian.Uint32(b[:])
		}
	}
	switch reason {
	case gpu.IRQVSync:
		d.VSyncs++
	default:
		d.fenceWQ.Wake()
	}
}

// allocVRAM carves size bytes (page-aligned) out of the caller's partition.
func (d *Driver) allocVRAM(c *kernel.FopCtx, size uint64) (uint64, error) {
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	lo, hi := &d.vramNext, d.vramEnd
	if d.di != nil {
		r, err := d.di.regionFor(c)
		if err != nil {
			return 0, err
		}
		lo, hi = &r.vramNext, r.vramHi
	}
	if *lo+size > hi {
		return 0, kernel.ENOSPC
	}
	off := *lo
	*lo += size
	if err := d.GPU.EnsureVRAM(off, size); err != nil {
		return 0, kernel.ENOMEM
	}
	return off, nil
}

// Open implements kernel.FileOps.
func (d *Driver) Open(c *kernel.FopCtx) error {
	c.File.Priv = &fileState{bos: make(map[uint32]*bo), nextBO: 1}
	return nil
}

// Release implements kernel.FileOps. (VRAM of a closed file is leaked, as
// in a deliberately simple allocator; real radeon uses TTM eviction.)
func (d *Driver) Release(c *kernel.FopCtx) error { return nil }

func fstate(c *kernel.FopCtx) (*fileState, error) {
	fs, ok := c.File.Priv.(*fileState)
	if !ok {
		return nil, kernel.EINVAL
	}
	return fs, nil
}

// Ioctl implements kernel.FileOps.
func (d *Driver) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	switch cmd {
	case IoctlGemCreate:
		return d.gemCreate(c, arg)
	case IoctlGemMmap:
		return d.gemMmap(c, arg)
	case IoctlCS:
		return d.cs(c, arg)
	case IoctlWaitFence:
		return d.waitFence(c, arg)
	case IoctlInfo:
		return d.info(c, arg)
	case IoctlGemClose:
		return d.gemClose(c, arg)
	case IoctlWaitVSync:
		return d.waitVSync(c, arg)
	}
	return 0, kernel.ENOTTY
}

func (d *Driver) gemCreate(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	fs, err := fstate(c)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 16)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	size := binary.LittleEndian.Uint64(buf[0:])
	if size == 0 {
		return 0, kernel.EINVAL
	}
	off, aerr := d.allocVRAM(c, size)
	if aerr != nil {
		return 0, aerr
	}
	b := &bo{handle: fs.nextBO, size: size, vramOff: off}
	fs.nextBO++
	fs.bos[b.handle] = b
	binary.LittleEndian.PutUint32(buf[0:], b.handle)
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

func (d *Driver) gemMmap(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	fs, err := fstate(c)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 16)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	b := fs.bos[binary.LittleEndian.Uint32(buf[0:])]
	if b == nil {
		return 0, kernel.EINVAL
	}
	binary.LittleEndian.PutUint64(buf[8:], b.vramOff/mem.PageSize)
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

func (d *Driver) gemClose(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	fs, err := fstate(c)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 8)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	h := binary.LittleEndian.Uint32(buf[0:])
	if fs.bos[h] == nil {
		return 0, kernel.EINVAL
	}
	delete(fs.bos, h)
	return 0, nil
}

// cs is the command-submission ioctl: the header names an array of chunk
// descriptors in user memory, each naming command data in user memory — the
// nested-copy structure the analyzer must extract (§4.1).
func (d *Driver) cs(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	fs, err := fstate(c)
	if err != nil {
		return 0, err
	}
	hdr := make([]byte, 16)
	if err := kernel.CopyFromUser(c, arg, hdr); err != nil {
		return 0, err
	}
	nchunks := binary.LittleEndian.Uint32(hdr[0:])
	chunksPtr := mem.GuestVirt(binary.LittleEndian.Uint64(hdr[8:]))
	if nchunks > 64 {
		return 0, kernel.EINVAL
	}
	var cmds []gpu.EngineCmd
	for i := uint32(0); i < nchunks; i++ {
		desc := make([]byte, 16)
		if err := kernel.CopyFromUser(c, chunksPtr+mem.GuestVirt(i*16), desc); err != nil {
			return 0, err
		}
		dataPtr := mem.GuestVirt(binary.LittleEndian.Uint64(desc[0:]))
		lenDW := binary.LittleEndian.Uint32(desc[8:])
		kind := binary.LittleEndian.Uint32(desc[12:])
		data := make([]byte, lenDW*4)
		if err := kernel.CopyFromUser(c, dataPtr, data); err != nil {
			return 0, err
		}
		if kind != ChunkIB {
			continue // relocation chunks etc. carry no commands
		}
		parsed, perr := d.parseIB(fs, data)
		if perr != nil {
			return 0, perr
		}
		cmds = append(cmds, parsed...)
	}
	if d.di != nil {
		if err := d.di.activate(c); err != nil {
			return 0, err
		}
	}
	d.nextFence++
	fence := d.nextFence
	d.GPU.Submit(cmds, fence)
	d.Submissions++
	return int32(fence), nil
}

// parseIB decodes command words, translating BO handles to VRAM addresses.
func (d *Driver) parseIB(fs *fileState, data []byte) ([]gpu.EngineCmd, error) {
	words := make([]uint32, len(data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	lookup := func(h uint32) (*bo, error) {
		b := fs.bos[h]
		if b == nil {
			return nil, kernel.EINVAL
		}
		return b, nil
	}
	var cmds []gpu.EngineCmd
	for i := 0; i < len(words); {
		switch words[i] {
		case gpu.OpNop:
			i++
		case gpu.OpDraw: // [op, dstH, texH, cyclesLo, cyclesHi]
			if i+5 > len(words) {
				return nil, kernel.EINVAL
			}
			dst, err := lookup(words[i+1])
			if err != nil {
				return nil, err
			}
			tex := ^uint64(0)
			if words[i+2] != 0 {
				tb, err := lookup(words[i+2])
				if err != nil {
					return nil, err
				}
				tex = tb.vramOff
			}
			cycles := uint64(words[i+3]) | uint64(words[i+4])<<32
			cmds = append(cmds, gpu.Cmd(gpu.OpDraw, dst.vramOff, tex, cycles))
			i += 5
		case gpu.OpCompute: // [op, aH, bH, cH, order]
			if i+5 > len(words) {
				return nil, kernel.EINVAL
			}
			a, err := lookup(words[i+1])
			if err != nil {
				return nil, err
			}
			b, err := lookup(words[i+2])
			if err != nil {
				return nil, err
			}
			cc, err := lookup(words[i+3])
			if err != nil {
				return nil, err
			}
			n := uint64(words[i+4])
			if n*n*4 > a.size || n*n*4 > b.size || n*n*4 > cc.size {
				return nil, kernel.EINVAL
			}
			cmds = append(cmds, gpu.Cmd(gpu.OpCompute, a.vramOff, b.vramOff, cc.vramOff, n))
			i += 5
		case gpu.OpCopy: // [op, srcH, dstH, bytes]
			if i+4 > len(words) {
				return nil, kernel.EINVAL
			}
			src, err := lookup(words[i+1])
			if err != nil {
				return nil, err
			}
			dst, err := lookup(words[i+2])
			if err != nil {
				return nil, err
			}
			n := uint64(words[i+3])
			if n > src.size || n > dst.size {
				return nil, kernel.EINVAL
			}
			cmds = append(cmds, gpu.Cmd(gpu.OpCopy, src.vramOff, dst.vramOff, n))
			i += 4
		default:
			return nil, kernel.EINVAL
		}
	}
	return cmds, nil
}

func (d *Driver) waitFence(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, 8)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	seq := binary.LittleEndian.Uint32(buf[0:])
	for d.GPU.FenceSeq() < seq {
		d.fenceWQ.Wait(c.Task)
	}
	return int32(d.GPU.FenceSeq()), nil
}

func (d *Driver) info(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, 32)
	binary.LittleEndian.PutUint32(buf[0:], d.model.Vendor)
	binary.LittleEndian.PutUint32(buf[4:], d.model.Device)
	binary.LittleEndian.PutUint64(buf[8:], d.GPU.VRAMSize())
	binary.LittleEndian.PutUint32(buf[16:], d.GPU.FenceSeq())
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

// Mmap implements kernel.FileOps: mappings are demand-faulted.
func (d *Driver) Mmap(c *kernel.FopCtx, v *kernel.VMA) error {
	fs, err := fstate(c)
	if err != nil {
		return err
	}
	if v.Start == 0 {
		return kernel.EINVAL
	}
	if _, ok := d.boByPgoff(fs, v.Pgoff, v.Len); !ok {
		return kernel.EINVAL
	}
	return nil
}

func (d *Driver) boByPgoff(fs *fileState, pgoff, length uint64) (*bo, bool) {
	for _, b := range fs.bos {
		if b.vramOff/mem.PageSize == pgoff {
			if length <= (b.size+mem.PageSize-1)&^(mem.PageSize-1) {
				return b, true
			}
			return nil, false
		}
	}
	return nil, false
}

// Fault implements kernel.FileOps: map the faulting VRAM page into the
// process via insert_pfn (redirected to the hypervisor for marked tasks).
func (d *Driver) Fault(c *kernel.FopCtx, v *kernel.VMA, va mem.GuestVirt) error {
	fs, err := fstate(c)
	if err != nil {
		return err
	}
	b, ok := d.boByPgoff(fs, v.Pgoff, v.Len)
	if !ok {
		return kernel.EFAULT
	}
	off := uint64(va) - uint64(v.Start)
	pfn := d.vramGPA + mem.GuestPhys(b.vramOff+off)
	return kernel.InsertPFN(c, va, pfn)
}

// Poll implements kernel.FileOps: readable when any fence has completed.
func (d *Driver) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(d.fenceWQ)
	if d.GPU.FenceSeq() > 0 {
		return devfile.PollIn | devfile.PollOut
	}
	return devfile.PollOut
}
