package drm

import (
	"encoding/binary"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/device/gpu"
	"paradice/internal/hv"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// rig is a native-style single-VM machine with the GPU assigned and the
// driver attached — the driver VM of a Paradice deployment, tested alone.
type rig struct {
	env *sim.Env
	h   *hv.Hypervisor
	vm  *hv.VM
	k   *kernel.Kernel
	g   *gpu.GPU
	d   *Driver
	dom *iommu.Domain
	isr func()
}

func newRig(t testing.TB, isolated bool) *rig {
	t.Helper()
	env := sim.NewEnv()
	h := hv.New(env, 128<<20)
	vm, err := h.CreateVM("driver", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New("driver", kernel.Linux, env, vm.Space, 32<<20)
	const vramBase = 0x8_0000_0000
	g := gpu.New(env, h.Phys, vramBase, 64<<20)
	bars := []hv.BAR{{Name: "vram", SPA: vramBase, Size: 64 << 20}}
	assign := h.AssignDevice
	if isolated {
		assign = h.AssignDeviceIsolated
	}
	dom, gpas, err := assign(vm, "gpu", bars)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, h: h, vm: vm, k: k, g: g, dom: dom}
	d, err := Attach(k, g, gpas[0], func(isr func()) { r.isr = isr })
	if err != nil {
		t.Fatal(err)
	}
	g.Connect(&iommu.DMA{Dom: dom, Phys: h.Phys}, func() { env.After(sim.Microsecond, r.isr) })
	r.d = d
	return r
}

// app is a little libdrm-less client: it issues raw ioctls.
type app struct {
	p  *kernel.Process
	tk *kernel.Task
	fd int
}

func (r *rig) openApp(t testing.TB, tk *kernel.Task) *app {
	t.Helper()
	fd, err := tk.Open("/dev/dri/card0", devfile.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	return &app{p: tk.Proc, tk: tk, fd: fd}
}

func (a *app) ioctl(t testing.TB, cmd devfile.IoctlCmd, arg []byte) (int32, []byte) {
	t.Helper()
	va, err := a.p.AllocBytes(arg)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := a.tk.Ioctl(a.fd, cmd, va)
	if err != nil {
		t.Fatalf("%v: %v", cmd, err)
	}
	out := make([]byte, len(arg))
	if err := a.p.Mem.Read(va, out); err != nil {
		t.Fatal(err)
	}
	return ret, out
}

func (a *app) createBO(t testing.TB, size uint64) uint32 {
	arg := make([]byte, 16)
	binary.LittleEndian.PutUint64(arg, size)
	_, out := a.ioctl(t, IoctlGemCreate, arg)
	return binary.LittleEndian.Uint32(out)
}

func (a *app) submitDraw(t testing.TB, dst, tex uint32, cycles uint64) int32 {
	words := []uint32{gpu.OpDraw, dst, tex, uint32(cycles), uint32(cycles >> 32)}
	ib := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(ib[i*4:], w)
	}
	ibVA, err := a.p.AllocBytes(ib)
	if err != nil {
		t.Fatal(err)
	}
	desc := make([]byte, 16)
	binary.LittleEndian.PutUint64(desc[0:], uint64(ibVA))
	binary.LittleEndian.PutUint32(desc[8:], uint32(len(words)))
	binary.LittleEndian.PutUint32(desc[12:], ChunkIB)
	descVA, err := a.p.AllocBytes(desc)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(descVA))
	ret, _ := a.ioctl(t, IoctlCS, hdr)
	return ret
}

func TestGemCreateAndInfo(t *testing.T) {
	r := newRig(t, false)
	p, _ := r.k.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		h1 := a.createBO(t, 8192)
		h2 := a.createBO(t, 4096)
		if h1 == 0 || h2 == 0 || h1 == h2 {
			t.Fatalf("handles %d %d", h1, h2)
		}
		_, out := a.ioctl(t, IoctlInfo, make([]byte, 32))
		if binary.LittleEndian.Uint32(out[0:]) != VendorATI {
			t.Fatalf("vendor %#x", binary.LittleEndian.Uint32(out[0:]))
		}
		if binary.LittleEndian.Uint64(out[8:]) != 64<<20 {
			t.Fatalf("vram %d", binary.LittleEndian.Uint64(out[8:]))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMmapBOAndWriteVRAM(t *testing.T) {
	r := newRig(t, false)
	p, _ := r.k.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		h := a.createBO(t, 2*mem.PageSize)
		arg := make([]byte, 16)
		binary.LittleEndian.PutUint32(arg, h)
		_, out := a.ioctl(t, IoctlGemMmap, arg)
		pgoff := binary.LittleEndian.Uint64(out[8:])
		va, err := tk.Mmap(a.fd, 2*mem.PageSize, pgoff)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.UserWrite(tk, va+100, []byte("into vram")); err != nil {
			t.Fatal(err)
		}
		// The bytes are physically in the GPU aperture.
		buf := make([]byte, 9)
		off := pgoff * mem.PageSize
		if err := r.h.Phys.Read(r.g.VRAMBase()+mem.SysPhys(off)+100, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "into vram" {
			t.Fatalf("VRAM holds %q", buf)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCSDrawAndFence(t *testing.T) {
	r := newRig(t, false)
	p, _ := r.k.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		fb := a.createBO(t, mem.PageSize)
		fence := a.submitDraw(t, fb, 0, 500_000)
		if fence <= 0 {
			t.Fatalf("fence = %d", fence)
		}
		start := tk.Sim().Now()
		warg := make([]byte, 8)
		binary.LittleEndian.PutUint32(warg, uint32(fence))
		a.ioctl(t, IoctlWaitFence, warg)
		if e := tk.Sim().Now().Sub(start); e < 500*sim.Microsecond {
			t.Fatalf("fence wait returned after %v, draw takes 500µs", e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if r.d.Submissions != 1 {
		t.Fatalf("submissions = %d", r.d.Submissions)
	}
}

func TestCSRejectsBadHandleAndOpcode(t *testing.T) {
	r := newRig(t, false)
	p, _ := r.k.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		fence := func(words []uint32) error {
			ib := make([]byte, len(words)*4)
			for i, w := range words {
				binary.LittleEndian.PutUint32(ib[i*4:], w)
			}
			ibVA, _ := a.p.AllocBytes(ib)
			desc := make([]byte, 16)
			binary.LittleEndian.PutUint64(desc[0:], uint64(ibVA))
			binary.LittleEndian.PutUint32(desc[8:], uint32(len(words)))
			binary.LittleEndian.PutUint32(desc[12:], ChunkIB)
			descVA, _ := a.p.AllocBytes(desc)
			hdr := make([]byte, 16)
			binary.LittleEndian.PutUint32(hdr[0:], 1)
			binary.LittleEndian.PutUint64(hdr[8:], uint64(descVA))
			hdrVA, _ := a.p.AllocBytes(hdr)
			_, err := tk.Ioctl(a.fd, IoctlCS, hdrVA)
			return err
		}
		if err := fence([]uint32{gpu.OpDraw, 999, 0, 1, 0}); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Fatalf("bad handle: %v", err)
		}
		if err := fence([]uint32{77}); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Fatalf("bad opcode: %v", err)
		}
		if err := fence([]uint32{gpu.OpDraw, 1}); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Fatalf("truncated command: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGemCloseInvalidatesHandle(t *testing.T) {
	r := newRig(t, false)
	p, _ := r.k.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		h := a.createBO(t, mem.PageSize)
		arg := make([]byte, 8)
		binary.LittleEndian.PutUint32(arg, h)
		a.ioctl(t, IoctlGemClose, arg)
		// The handle is gone: mmap lookup fails.
		marg := make([]byte, 16)
		binary.LittleEndian.PutUint32(marg, h)
		va, _ := p.AllocBytes(marg)
		if _, err := tk.Ioctl(a.fd, IoctlGemMmap, va); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Fatalf("mmap of closed handle: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHandlesArePerFile(t *testing.T) {
	r := newRig(t, false)
	p1, _ := r.k.NewProcess("app1")
	p2, _ := r.k.NewProcess("app2")
	var h1 uint32
	p1.SpawnTask("a", func(tk *kernel.Task) {
		a := r.openApp(t, tk)
		h1 = a.createBO(t, mem.PageSize)
	})
	p2.SpawnTask("b", func(tk *kernel.Task) {
		tk.Sim().Sleep(sim.Millisecond)
		a := r.openApp(t, tk)
		// p2 must not be able to use p1's handle.
		marg := make([]byte, 16)
		binary.LittleEndian.PutUint32(marg, h1)
		va, _ := p2.AllocBytes(marg)
		if _, err := tk.Ioctl(a.fd, IoctlGemMmap, va); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Errorf("cross-file handle use: %v", err)
		}
	})
	r.env.Run()
}

func TestVRAMExhaustionENOSPC(t *testing.T) {
	r := newRig(t, false)
	p, _ := r.k.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		arg := make([]byte, 16)
		binary.LittleEndian.PutUint64(arg, 63<<20)
		va, _ := p.AllocBytes(arg)
		if _, err := tk.Ioctl(a.fd, IoctlGemCreate, va); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(arg, 2<<20)
		va2, _ := p.AllocBytes(arg)
		if _, err := tk.Ioctl(a.fd, IoctlGemCreate, va2); !kernel.IsErrno(err, kernel.ENOSPC) {
			t.Fatalf("over-allocation: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVSyncCountedViaReasonBuffer(t *testing.T) {
	r := newRig(t, false)
	// The device posts a VSync reason and interrupts.
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], gpu.IRQVSync)
	if err := r.k.Space.Write(r.d.irqReasonGPA, b[:]); err != nil {
		t.Fatal(err)
	}
	r.isr()
	if r.d.VSyncs != 1 {
		t.Fatalf("vsyncs = %d", r.d.VSyncs)
	}
}

func TestDataIsolationRegionSwitching(t *testing.T) {
	r := newRig(t, true)
	gate := hv.NewGate("mc")
	gate.Revoke()
	r.d.EnableDataIsolation(r.h, r.vm, r.dom, gate)
	guest1, _ := r.h.CreateVM("g1", 4<<20)
	guest2, _ := r.h.CreateVM("g2", 4<<20)
	p1, _ := r.k.NewProcess("backend-g1")
	p2, _ := r.k.NewProcess("backend-g2")
	if err := r.d.AddGuestRegion(p1, guest1, 0, 32<<20); err != nil {
		t.Fatal(err)
	}
	if err := r.d.AddGuestRegion(p2, guest2, 32<<20, 64<<20); err != nil {
		t.Fatal(err)
	}
	// A CS from p1 activates region 1 and narrows the MC window.
	p1.SpawnTask("a", func(tk *kernel.Task) {
		a := r.openApp(t, tk)
		fb := a.createBO(t, mem.PageSize)
		a.submitDraw(t, fb, 0, 1000)
	})
	r.env.Run()
	if r.d.ActiveRegion() != p1 {
		t.Fatal("region 1 not active after p1's CS")
	}
	lo, hi := r.g.MCBounds()
	if lo != 0 || hi != 32<<20 {
		t.Fatalf("MC window [%#x,%#x)", lo, hi)
	}
	// p2's CS switches.
	p2.SpawnTask("b", func(tk *kernel.Task) {
		a := r.openApp(t, tk)
		fb := a.createBO(t, mem.PageSize)
		a.submitDraw(t, fb, 0, 1000)
	})
	r.env.Run()
	if r.d.ActiveRegion() != p2 {
		t.Fatal("region 2 not active after p2's CS")
	}
	lo, hi = r.g.MCBounds()
	if lo != 32<<20 || hi != 64<<20 {
		t.Fatalf("MC window [%#x,%#x)", lo, hi)
	}
	if r.g.Faults != 0 {
		t.Fatalf("legitimate runs faulted: %d", r.g.Faults)
	}
}

func TestDataIsolationRejectsUnknownProcess(t *testing.T) {
	r := newRig(t, true)
	gate := hv.NewGate("mc")
	gate.Revoke()
	r.d.EnableDataIsolation(r.h, r.vm, r.dom, gate)
	// No region registered for this process: BO allocation is refused.
	p, _ := r.k.NewProcess("stranger")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		a := r.openApp(t, tk)
		arg := make([]byte, 16)
		binary.LittleEndian.PutUint64(arg, mem.PageSize)
		va, _ := p.AllocBytes(arg)
		if _, err := tk.Ioctl(a.fd, IoctlGemCreate, va); !kernel.IsErrno(err, kernel.EACCES) {
			t.Fatalf("stranger allocation: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseRegionPageZeroes(t *testing.T) {
	r := newRig(t, true)
	gate := hv.NewGate("mc")
	gate.Revoke()
	r.d.EnableDataIsolation(r.h, r.vm, r.dom, gate)
	guest, _ := r.h.CreateVM("g1", 4<<20)
	p, _ := r.k.NewProcess("backend")
	if err := r.d.AddGuestRegion(p, guest, 0, 32<<20); err != nil {
		t.Fatal(err)
	}
	if err := r.d.ReleaseRegionPage(p, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.d.ReleaseRegionPage(p, 999); err == nil {
		t.Fatal("bad pool index accepted")
	}
}

func TestAnalyzedSpecsCoverAllCommands(t *testing.T) {
	specs, err := AnalyzedSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []devfile.IoctlCmd{IoctlGemCreate, IoctlGemMmap, IoctlCS,
		IoctlWaitFence, IoctlInfo, IoctlGemClose} {
		spec, ok := specs[cmd]
		if !ok {
			t.Fatalf("no spec for %v", cmd)
		}
		if cmd == IoctlCS && !spec.Dynamic {
			t.Fatal("CS must be dynamic")
		}
		if cmd != IoctlCS && spec.Dynamic {
			t.Fatalf("%v should be static", cmd)
		}
	}
}
