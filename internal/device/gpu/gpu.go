// Package gpu simulates a Radeon-Evergreen-class discrete GPU — the
// HD 6450 of the paper's testbed. It models the pieces Paradice interacts
// with: a VRAM aperture exposed as a BAR, a command processor executing
// command streams with a cycle-cost model, fence interrupts, an
// interrupt-reason buffer in system memory (the §5.3 problem child), DMA
// through the IOMMU, and the memory-controller bound registers that device
// data isolation uses to partition VRAM between guest VMs.
package gpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"paradice/internal/iommu"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Command opcodes, as encoded in command-stream words by userspace
// libraries and parsed by the DRM driver and the command processor.
const (
	OpNop     = 0
	OpDraw    = 1 // args: dstAddr, texAddr, workCycles, outBytes
	OpCompute = 2 // args: aAddr, bAddr, cAddr, order
	OpCopy    = 3 // args: srcAddr, dstAddr, byteLen
)

// Interrupt reason codes written to the interrupt-reason buffer.
const (
	IRQFence = 1
	IRQVSync = 2
)

// NsPerCycle converts the abstract GPU work cycles of a draw command to
// simulated time.
const NsPerCycle = sim.Nanosecond

// NsPerMulAdd is the compute cost of one fused multiply-add, calibrated so
// an order-500 matrix multiplication takes ~10 s, matching Figure 6's
// single-VM time on the HD 6450 through Gallium Compute.
const NsPerMulAdd = 80 * sim.Nanosecond

// EngineCmd is one command as enqueued by the driver, already translated
// from buffer-object handles to VRAM addresses.
type EngineCmd struct {
	op       uint32
	args     [4]uint64
	fenceSeq uint32 // fence to signal after this command (0 = none)
}

// GPU is the simulated device.
type GPU struct {
	env  *sim.Env
	phys *mem.PhysMem

	// VRAM aperture.
	vramBase mem.SysPhys
	vramSize uint64

	// Memory-controller accessible-VRAM bounds (the Evergreen FB_LOCATION
	// registers §4.2 leans on). Offsets into VRAM.
	mcLow, mcHigh uint64

	// DMA path to system memory (nil until the device is assigned).
	dma *iommu.DMA

	// IRQ delivery into the owning VM (set at assignment).
	raiseIRQ func()

	// Interrupt-reason ring in system memory; 0 disables it (the device
	// data isolation configuration interprets every interrupt as a fence).
	irqReasonBus iommu.BusAddr

	queue    []EngineCmd
	kick     *sim.Event
	fenceSeq uint32 // last completed fence (readable register)
	broken   bool   // wedged by a bad control-register write

	// Faults counts engine memory-access violations (MC bounds, IOMMU).
	Faults int
	// Executed counts completed commands.
	Executed int
}

// WriteControlReg models the attack surface §8 describes: "a malicious
// guest VM can break the device by corrupting the device driver and writing
// unexpected values into the device registers". Any unrecognized value
// wedges the command processor: queued and future commands stop executing
// and fences stop signaling, until Reset.
func (g *GPU) WriteControlReg(val uint64) {
	if val != 0 {
		g.broken = true
	}
}

// Broken reports whether the command processor is wedged.
func (g *GPU) Broken() bool { return g.broken }

// Reset models a device function-level reset, performed when the driver VM
// is restarted (§8): the command queue is dropped, the fence counter and
// memory-controller window return to power-on state, and the device runs
// again. VRAM contents survive, as on real hardware.
func (g *GPU) Reset() {
	g.broken = false
	g.queue = nil
	g.fenceSeq = 0
	g.mcLow, g.mcHigh = 0, g.vramSize
	g.irqReasonBus = 0
	g.dma = nil
	g.raiseIRQ = nil
}

// New creates a GPU with vramSize bytes of device memory backed at a fresh
// physical range.
func New(env *sim.Env, phys *mem.PhysMem, vramBase mem.SysPhys, vramSize uint64) *GPU {
	g := &GPU{
		env:      env,
		phys:     phys,
		vramBase: vramBase,
		vramSize: vramSize,
		mcHigh:   vramSize,
		kick:     env.NewEvent(),
	}
	phys.AddRange("gpu-vram", vramBase, vramSize)
	env.Spawn("gpu-engine", g.engine)
	return g
}

// VRAMBase returns the system-physical base of the VRAM aperture (its BAR).
func (g *GPU) VRAMBase() mem.SysPhys { return g.vramBase }

// VRAMSize returns the device memory size in bytes.
func (g *GPU) VRAMSize() uint64 { return g.vramSize }

// Connect attaches the device to its IOMMU domain and interrupt line, as
// part of device assignment.
func (g *GPU) Connect(dma *iommu.DMA, raiseIRQ func()) {
	g.dma = dma
	g.raiseIRQ = raiseIRQ
}

// EnsureVRAM backs [off, off+size) of VRAM with frames (device memory is
// allocated lazily, like real VRAM pages touched for the first time).
func (g *GPU) EnsureVRAM(off, size uint64) error {
	if off+size > g.vramSize || off+size < off {
		return fmt.Errorf("gpu: VRAM range [%#x,+%#x) outside %#x", off, size, g.vramSize)
	}
	for p := mem.PageBase(off); p < off+size; p += mem.PageSize {
		g.phys.Populate(g.vramBase + mem.SysPhys(p))
	}
	return nil
}

// --- registers ---

// FenceSeq reads the completed-fence register.
func (g *GPU) FenceSeq() uint32 { return g.fenceSeq }

// SetMCBounds programs the memory-controller accessible-VRAM window
// [lo, hi). This is the register pair the hypervisor takes control of for
// device data isolation (§4.2); the DRM driver reaches it through a gate.
func (g *GPU) SetMCBounds(lo, hi uint64) {
	g.mcLow, g.mcHigh = lo, hi
}

// MCBounds returns the current accessible-VRAM window.
func (g *GPU) MCBounds() (lo, hi uint64) { return g.mcLow, g.mcHigh }

// SetIRQReasonBuffer points the device's interrupt-reason ring at a system
// memory page (bus address), or disables it with 0.
func (g *GPU) SetIRQReasonBuffer(bus iommu.BusAddr) { g.irqReasonBus = bus }

// --- command submission ---

// Submit enqueues translated commands followed by a fence, returning the
// fence sequence number.
func (g *GPU) Submit(cmds []EngineCmd, fence uint32) {
	for i := range cmds {
		if i == len(cmds)-1 {
			cmds[i].fenceSeq = fence
		}
		g.queue = append(g.queue, cmds[i])
	}
	if len(cmds) == 0 {
		g.queue = append(g.queue, EngineCmd{op: OpNop, fenceSeq: fence})
	}
	g.kick.Trigger()
}

// Cmd builds an engine command (used by the driver after BO translation).
func Cmd(op uint32, args ...uint64) EngineCmd {
	c := EngineCmd{op: op}
	copy(c.args[:], args)
	return c
}

// engine is the command processor: strictly in-order execution, one command
// at a time — which is what shares GPU time between guest VMs and produces
// the linear scaling of Figure 6.
func (g *GPU) engine(p *sim.Proc) {
	for {
		if len(g.queue) == 0 || g.broken {
			g.kick.Reset()
			p.Wait(g.kick)
			continue
		}
		cmd := g.queue[0]
		g.queue = g.queue[1:]
		g.exec(cmd)
		trace.Get(g.env).Add("device.gpu.cmds", 1)
		g.Executed++
		if cmd.fenceSeq != 0 {
			g.fenceSeq = cmd.fenceSeq
			g.signalIRQ(IRQFence)
		}
	}
}

// signalIRQ posts the interrupt reason (when the reason buffer is enabled)
// and raises the device interrupt.
func (g *GPU) signalIRQ(reason uint32) {
	if g.irqReasonBus != 0 && g.dma != nil {
		if err := g.dma.WriteU32(g.irqReasonBus, reason); err != nil {
			g.Faults++
		}
	}
	if g.raiseIRQ != nil {
		g.raiseIRQ()
	}
}

// vram checks an engine access against the MC bounds and returns the
// physical address. Accesses outside the window do not succeed (§4.2).
func (g *GPU) vram(off, size uint64) (mem.SysPhys, error) {
	if off < g.mcLow || off+size > g.mcHigh || off+size < off {
		g.Faults++
		return 0, fmt.Errorf("gpu: VRAM access [%#x,+%#x) outside MC window [%#x,%#x)",
			off, size, g.mcLow, g.mcHigh)
	}
	return g.vramBase + mem.SysPhys(off), nil
}

// exec runs one command on the engine proc. Device compute/copy time is not
// attributable to one forwarded request — commands execute asynchronously
// after the submitting ioctl returned, and the engine proc is bound to no
// request — so the spans the exec* functions spend carry rid 0.
func (g *GPU) exec(c EngineCmd) {
	switch c.op {
	case OpNop:
	case OpDraw:
		g.execDraw(c)
	case OpCompute:
		g.execCompute(c)
	case OpCopy:
		g.execCopy(c)
	default:
		g.Faults++
	}
}

// execDraw renders: it reads the texture (verifying access), burns the
// command's work cycles, and stamps the render target.
func (g *GPU) execDraw(c EngineCmd) {
	dst, tex, cycles := c.args[0], c.args[1], c.args[2]
	if tex != math.MaxUint64 {
		pa, err := g.vram(tex, 64)
		if err != nil {
			return
		}
		var probe [64]byte
		if g.phys.Read(pa, probe[:]) != nil {
			g.Faults++
			return
		}
	}
	pa, err := g.vram(dst, 64)
	if err != nil {
		return
	}
	perf.Spend(g.env, "device", trace.LayerDevice, "gpu-draw", sim.Duration(cycles)*NsPerCycle)
	var stamp [64]byte
	binary.LittleEndian.PutUint32(stamp[:], uint32(g.Executed+1))
	binary.LittleEndian.PutUint32(stamp[4:], uint32(cycles))
	if g.phys.Write(pa, stamp[:]) != nil {
		g.Faults++
	}
}

// execCompute multiplies two square float32 matrices held in VRAM — the
// real product, so a guest's OpenCL result can be verified end to end.
func (g *GPU) execCompute(c EngineCmd) {
	aOff, bOff, cOff, n := c.args[0], c.args[1], c.args[2], c.args[3]
	bytes := n * n * 4
	aPA, err := g.vram(aOff, bytes)
	if err != nil {
		return
	}
	bPA, err := g.vram(bOff, bytes)
	if err != nil {
		return
	}
	cPA, err := g.vram(cOff, bytes)
	if err != nil {
		return
	}
	a := make([]byte, bytes)
	b := make([]byte, bytes)
	if g.phys.Read(aPA, a) != nil || g.phys.Read(bPA, b) != nil {
		g.Faults++
		return
	}
	af := toF32(a)
	bf := toF32(b)
	cf := make([]float32, n*n)
	for i := uint64(0); i < n; i++ {
		for k := uint64(0); k < n; k++ {
			aik := af[i*n+k]
			row := bf[k*n : k*n+n]
			out := cf[i*n : i*n+n]
			for j := range out {
				out[j] += aik * row[j]
			}
		}
	}
	perf.Spend(g.env, "device", trace.LayerDevice, "gpu-compute", sim.Duration(n*n*n)*NsPerMulAdd)
	if g.phys.Write(cPA, fromF32(cf)) != nil {
		g.Faults++
	}
}

// execCopy is the DMA engine: VRAM-to-VRAM or VRAM/system transfers. Source
// and destination above 1<<63 are bus (system) addresses via the IOMMU.
func (g *GPU) execCopy(c EngineCmd) {
	src, dst, n := c.args[0], c.args[1], c.args[2]
	buf := make([]byte, n)
	if err := g.read(src, buf); err != nil {
		return
	}
	perf.Spend(g.env, "device", trace.LayerDevice, "gpu-copy", sim.Duration(n)*sim.Nanosecond/8) // ~8 GB/s blit engine
	if err := g.write(dst, buf); err != nil {
		return
	}
}

// BusFlag marks a copy address as a system-memory bus address rather than a
// VRAM offset.
const BusFlag = uint64(1) << 63

func (g *GPU) read(addr uint64, buf []byte) error {
	if addr&BusFlag != 0 {
		if g.dma == nil {
			g.Faults++
			return fmt.Errorf("gpu: no DMA path")
		}
		if err := g.dma.Read(iommu.BusAddr(addr&^BusFlag), buf); err != nil {
			g.Faults++
			return err
		}
		return nil
	}
	pa, err := g.vram(addr, uint64(len(buf)))
	if err != nil {
		return err
	}
	if err := g.phys.Read(pa, buf); err != nil {
		g.Faults++
		return err
	}
	return nil
}

func (g *GPU) write(addr uint64, buf []byte) error {
	if addr&BusFlag != 0 {
		if g.dma == nil {
			g.Faults++
			return fmt.Errorf("gpu: no DMA path")
		}
		if err := g.dma.Write(iommu.BusAddr(addr&^BusFlag), buf); err != nil {
			g.Faults++
			return err
		}
		return nil
	}
	pa, err := g.vram(addr, uint64(len(buf)))
	if err != nil {
		return err
	}
	if err := g.phys.Write(pa, buf); err != nil {
		g.Faults++
		return err
	}
	return nil
}

func toF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func fromF32(f []float32) []byte {
	out := make([]byte, len(f)*4)
	for i, v := range f {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}
