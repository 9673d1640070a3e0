package cvd

import (
	"bytes"
	"encoding/binary"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// ---- test device driver (lives in the driver VM) ----

// testDriver is a device with one of everything: a byte store exercised by
// read/write, a plain ioctl, a nested-copy ioctl (the Radeon CS pattern), a
// malicious ioctl that performs an undeclared memory operation, mmap-able
// device pages, poll, and fasync.
type testDriver struct {
	kernel.BaseOps
	k       *kernel.Kernel
	data    []byte
	wq      *kernel.WaitQueue
	pages   []mem.GuestPhys // "device memory" pages
	fasyncs []*kernel.File
	chunks  [][]byte // payloads gathered by the nested ioctl
}

var (
	tdNoop    = devfile.IO('T', 0)
	tdStruct  = devfile.IOWR('T', 1, 32) // macro-shaped: copy in + copy out
	tdNested  = devfile.IOW('T', 2, 16)  // header {count u32, pad u32, ptr u64}
	tdEvil    = devfile.IO('T', 3)       // tries an undeclared copy
	tdEvilMap = devfile.IO('T', 4)       // tries an undeclared map
)

// tdNestedIR is the IR form of the nested handler — what the paper's Clang
// tool would have extracted from the C source.
func tdNestedIR() *ioctlan.Prog {
	return &ioctlan.Prog{
		Cmd:  tdNested,
		Name: "TD_NESTED",
		Body: []ioctlan.Stmt{
			ioctlan.DriverWork{What: "validate state"},
			ioctlan.CopyFromUser{Dst: "hdr", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
			ioctlan.Let{Name: "count", Val: ioctlan.LoadField{Buf: "hdr", Off: 0, Size: 4}},
			ioctlan.Let{Name: "ptr", Val: ioctlan.LoadField{Buf: "hdr", Off: 8, Size: 8}},
			ioctlan.For{Var: "i", Count: ioctlan.Local("count"), Body: []ioctlan.Stmt{
				ioctlan.CopyFromUser{
					Dst: "desc",
					Src: ioctlan.Bin{Op: '+', L: ioctlan.Local("ptr"),
						R: ioctlan.Bin{Op: '*', L: ioctlan.Local("i"), R: ioctlan.Const(16)}},
					Size: ioctlan.Const(16),
				},
				ioctlan.CopyFromUser{
					Dst:  "payload",
					Src:  ioctlan.LoadField{Buf: "desc", Off: 0, Size: 8},
					Size: ioctlan.LoadField{Buf: "desc", Off: 8, Size: 4},
				},
				ioctlan.DriverWork{What: "queue chunk"},
			}},
		},
	}
}

func (d *testDriver) Read(c *kernel.FopCtx, dst mem.GuestVirt, n int) (int, error) {
	for len(d.data) == 0 {
		if c.File.Nonblock() {
			return 0, kernel.EAGAIN
		}
		d.wq.Wait(c.Task)
	}
	if n > len(d.data) {
		n = len(d.data)
	}
	// Dequeue before copying (the mutex-protected section of a real
	// driver): the hypervisor-assisted copy may yield the processor, and
	// another handler thread must not see the same bytes.
	chunk := d.data[:n]
	d.data = d.data[n:]
	if err := kernel.CopyToUser(c, dst, chunk); err != nil {
		return 0, err
	}
	return n, nil
}

func (d *testDriver) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	buf := make([]byte, n)
	if err := kernel.CopyFromUser(c, src, buf); err != nil {
		return 0, err
	}
	d.data = append(d.data, buf...)
	d.wq.Wake()
	for _, f := range d.fasyncs {
		if f.FasyncOn {
			f.Proc.DeliverSIGIO()
		}
	}
	return n, nil
}

func (d *testDriver) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	switch cmd {
	case tdNoop:
		return 0, nil
	case tdStruct:
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
	case tdNested:
		hdr := make([]byte, 16)
		if err := kernel.CopyFromUser(c, arg, hdr); err != nil {
			return 0, err
		}
		count := binary.LittleEndian.Uint32(hdr[0:])
		ptr := mem.GuestVirt(binary.LittleEndian.Uint64(hdr[8:]))
		for i := uint32(0); i < count; i++ {
			desc := make([]byte, 16)
			if err := kernel.CopyFromUser(c, ptr+mem.GuestVirt(i*16), desc); err != nil {
				return 0, err
			}
			p := mem.GuestVirt(binary.LittleEndian.Uint64(desc[0:]))
			n := binary.LittleEndian.Uint32(desc[8:])
			payload := make([]byte, n)
			if err := kernel.CopyFromUser(c, p, payload); err != nil {
				return 0, err
			}
			d.chunks = append(d.chunks, payload)
		}
		return int32(count), nil
	case tdEvil:
		// A compromised driver tries to write to guest memory the guest
		// never granted for this operation.
		err := kernel.CopyToUser(c, 0x40000000, []byte("pwn"))
		if err != nil {
			return -1, err
		}
		return 0, nil
	case tdEvilMap:
		// ... or to map a driver page over ungranted guest addresses.
		err := kernel.InsertPFN(c, 0x7F000000, d.pages[0])
		if err != nil {
			return -1, err
		}
		return 0, nil
	}
	return 0, kernel.ENOTTY
}

func (d *testDriver) Mmap(c *kernel.FopCtx, v *kernel.VMA) error {
	if v.Len > uint64(len(d.pages))*mem.PageSize {
		return kernel.EINVAL
	}
	return nil // demand fault
}

func (d *testDriver) Fault(c *kernel.FopCtx, v *kernel.VMA, va mem.GuestVirt) error {
	idx := (uint64(va) - uint64(v.Start)) / mem.PageSize
	if idx >= uint64(len(d.pages)) {
		return kernel.EFAULT
	}
	return kernel.InsertPFN(c, va, d.pages[idx])
}

func (d *testDriver) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(d.wq)
	if len(d.data) > 0 {
		return devfile.PollIn | devfile.PollOut
	}
	return devfile.PollOut
}

func (d *testDriver) Fasync(c *kernel.FopCtx, on bool) error {
	if on {
		d.fasyncs = append(d.fasyncs, c.File)
	}
	return nil
}

// ---- rig ----

type rig struct {
	env      *sim.Env
	h        *hv.Hypervisor
	driverVM *hv.VM
	driverK  *kernel.Kernel
	guestVM  *hv.VM
	guestK   *kernel.Kernel
	fe       *Frontend
	be       *Backend
	drv      *testDriver
}

func newRig(t testing.TB, mode Mode, guestFlavor kernel.Flavor, opts ...func(*Config)) *rig {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	h := hv.New(env, 256<<20)
	driverVM, err := h.CreateVM("driver", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK := kernel.New("driver", kernel.Linux, env, driverVM.Space, driverVM.RAM)
	guestVM, err := h.CreateVM("guest", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	guestK := kernel.New("guest", guestFlavor, env, guestVM.Space, guestVM.RAM)

	drv := &testDriver{k: driverK, wq: driverK.NewWaitQueue("testdrv")}
	for i := 0; i < 4; i++ {
		pg, err := driverK.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		drv.pages = append(drv.pages, pg)
	}
	driverK.RegisterDevice("/dev/testdev", drv, drv)

	spec, err := ioctlan.Analyze(tdNestedIR())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		HV: h, GuestVM: guestVM, GuestK: guestK,
		DriverVM: driverVM, DriverK: driverK,
		DevicePath: "/dev/testdev", Mode: mode,
		Specs: map[devfile.IoctlCmd]*ioctlan.CmdSpec{tdNested: spec},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	fe, be, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, h: h, driverVM: driverVM, driverK: driverK,
		guestVM: guestVM, guestK: guestK, fe: fe, be: be, drv: drv}
}

func (r *rig) runApp(t testing.TB, fn func(p *kernel.Process, tk *kernel.Task)) {
	t.Helper()
	p, err := r.guestK.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) { fn(p, tk) })
	r.env.Run()
}

// ---- tests ----

func TestForwardedReadWrite(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("crossing the device file boundary")
		src, _ := p.AllocBytes(msg)
		n, err := tk.Write(fd, src, len(msg))
		if err != nil || n != len(msg) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		dst, _ := p.Alloc(64)
		n, err = tk.Read(fd, dst, 64)
		if err != nil || n != len(msg) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		got := make([]byte, n)
		if err := p.Mem.Read(dst, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("got %q want %q", got, msg)
		}
		if err := tk.Close(fd); err != nil {
			t.Fatal(err)
		}
	})
	// The driver's bytes really lived in the driver VM: the guest VM's EPT
	// never mapped the driver's heap, only the ring page.
	if r.fe.RoundTrips < 4 {
		t.Fatalf("round trips = %d, want >= 4 (open/write/read/release)", r.fe.RoundTrips)
	}
}

// The §6.1.1 microbenchmark: a no-op file operation forwarded with
// interrupts costs ~35 µs, dominated by two inter-VM interrupts; polling
// reduces it to ~2 µs.
func TestNoopLatencyInterrupts(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	var rt sim.Duration
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		const iters = 100
		start := tk.Sim().Now()
		for i := 0; i < iters; i++ {
			if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
				t.Fatal(err)
			}
		}
		rt = tk.Sim().Now().Sub(start) / iters
	})
	if rt < 30*sim.Microsecond || rt > 40*sim.Microsecond {
		t.Fatalf("no-op round trip = %v, want ~35µs", rt)
	}
}

func TestNoopLatencyPolling(t *testing.T) {
	r := newRig(t, Polling, kernel.Linux)
	var rt sim.Duration
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		const iters = 100
		start := tk.Sim().Now()
		for i := 0; i < iters; i++ {
			if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
				t.Fatal(err)
			}
		}
		rt = tk.Sim().Now().Sub(start) / iters
	})
	if rt < sim.Microsecond || rt > 4*sim.Microsecond {
		t.Fatalf("polled no-op round trip = %v, want ~2µs", rt)
	}
}

func TestMacroIoctlRoundtrip(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		payload := bytes.Repeat([]byte{0x0F}, 32)
		arg, _ := p.AllocBytes(payload)
		if _, err := tk.Ioctl(fd, tdStruct, arg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 32)
		if err := p.Mem.Read(arg, got); err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0xF0 {
				t.Fatalf("ioctl result byte %#x, want 0xF0", b)
			}
		}
	})
}

func TestNestedIoctlJITGrants(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		// Two chunks at scattered user addresses.
		pay1, _ := p.AllocBytes([]byte("first chunk payload"))
		pay2, _ := p.AllocBytes([]byte("second"))
		descs := make([]byte, 32)
		binary.LittleEndian.PutUint64(descs[0:], uint64(pay1))
		binary.LittleEndian.PutUint32(descs[8:], 19)
		binary.LittleEndian.PutUint64(descs[16:], uint64(pay2))
		binary.LittleEndian.PutUint32(descs[24:], 6)
		descVA, _ := p.AllocBytes(descs)
		hdr := make([]byte, 16)
		binary.LittleEndian.PutUint32(hdr[0:], 2)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(descVA))
		argVA, _ := p.AllocBytes(hdr)
		ret, err := tk.Ioctl(fd, tdNested, argVA)
		if err != nil || ret != 2 {
			t.Fatalf("nested ioctl: ret=%d err=%v", ret, err)
		}
	})
	if len(r.drv.chunks) != 2 ||
		string(r.drv.chunks[0]) != "first chunk payload" ||
		string(r.drv.chunks[1]) != "second" {
		t.Fatalf("driver chunks = %q", r.drv.chunks)
	}
}

// A compromised driver VM performing memory operations the guest never
// declared is stopped by the hypervisor's grant checks, while the rest of
// the operation completes normally — fault isolation per §4.1.
func TestUndeclaredDriverOpsRejected(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		// Map something at the evil target so only the grant check can say no.
		if _, err := p.AllocBytes([]byte("victim")); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Ioctl(fd, tdEvil, 0); !kernel.IsErrno(err, kernel.EFAULT) {
			t.Fatalf("evil copy ioctl: %v, want EFAULT", err)
		}
		if _, err := tk.Ioctl(fd, tdEvilMap, 0); !kernel.IsErrno(err, kernel.EFAULT) {
			t.Fatalf("evil map ioctl: %v, want EFAULT", err)
		}
	})
}

func TestForwardedMmapFaultMunmap(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	marker := []byte("driver VM device page 2")
	if err := r.driverVM.Space.Write(r.drv.pages[2], marker); err != nil {
		t.Fatal(err)
	}
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		va, err := tk.Mmap(fd, 4*mem.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(marker))
		// Touch page 2: fault -> forwarded -> driver InsertPFN -> hypervisor
		// fixes EPT + guest page table.
		if err := p.UserRead(tk, va+2*mem.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marker) {
			t.Fatalf("mapped page reads %q", got)
		}
		// Guest writes land in the driver VM page (shared memory, not copy).
		if err := p.UserWrite(tk, va+2*mem.PageSize+64, []byte("from guest")); err != nil {
			t.Fatal(err)
		}
		check := make([]byte, 10)
		if err := r.driverVM.Space.Read(r.drv.pages[2]+64, check); err != nil {
			t.Fatal(err)
		}
		if string(check) != "from guest" {
			t.Fatalf("driver page has %q", check)
		}
		if err := tk.Munmap(va, 4*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := p.UserRead(tk, va+2*mem.PageSize, got); err == nil {
			t.Fatal("read after munmap succeeded")
		}
	})
}

func TestForwardedPollWakes(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	app, _ := r.guestK.NewProcess("app")
	var mask devfile.PollMask
	var wokeAt sim.Time
	app.SpawnTask("poller", func(tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdOnly)
		mask, _ = tk.Poll(fd, devfile.PollIn, -1)
		wokeAt = tk.Sim().Now()
	})
	// A driver-VM local process writes 500µs later, waking the guest poller
	// through the backend's poll-wake notification.
	writer, _ := r.driverK.NewProcess("local-writer")
	writer.SpawnTask("w", func(tk *kernel.Task) {
		tk.Sim().Sleep(500 * sim.Microsecond)
		fd, _ := tk.Open("/dev/testdev", devfile.OWrOnly)
		src, _ := writer.AllocBytes([]byte("evt"))
		if _, err := tk.Write(fd, src, 3); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	if mask&devfile.PollIn == 0 {
		t.Fatalf("poll mask = %v, want PollIn", mask)
	}
	if wokeAt < sim.Time(500*sim.Microsecond) {
		t.Fatalf("poller woke at %v, before the event", wokeAt)
	}
	if d := r.env.Deadlocked(); len(d) > 1 { // the CVD dispatcher parks forever by design
		t.Fatalf("deadlocked: %v", d)
	}
}

func TestForwardedFasyncSIGIO(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	app, _ := r.guestK.NewProcess("app")
	sigios := 0
	app.OnSIGIO(func() { sigios++ })
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdOnly)
		if err := tk.SetFasync(fd, true); err != nil {
			t.Error(err)
		}
	})
	writer, _ := r.driverK.NewProcess("local-writer")
	writer.SpawnTask("w", func(tk *kernel.Task) {
		tk.Sim().Sleep(300 * sim.Microsecond)
		fd, _ := tk.Open("/dev/testdev", devfile.OWrOnly)
		src, _ := writer.AllocBytes([]byte("e"))
		_, _ = tk.Write(fd, src, 1)
	})
	r.env.Run()
	if sigios != 1 {
		t.Fatalf("guest received %d SIGIOs, want 1", sigios)
	}
}

func TestQueueCapRejectsFlood(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	// A malicious guest floods the queue from many threads; the 100-slot
	// cap (§5.1) bounds it and the 101st concurrent post fails with EBUSY.
	app, _ := r.guestK.NewProcess("flooder")
	opened := r.env.NewEvent("opened")
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.ORdOnly)
		opened.Trigger()
	})
	busy := 0
	done := 0
	for i := 0; i < slotCount+10; i++ {
		app.SpawnTask("flood", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			// Blocking reads: each occupies a queue slot and never returns.
			dst, _ := app.Alloc(8)
			if _, err := tk.Read(fd, dst, 8); kernel.IsErrno(err, kernel.EBUSY) {
				busy++
			} else {
				done++
			}
		})
	}
	r.env.RunUntil(sim.Time(50 * sim.Millisecond))
	if busy < 9 {
		t.Fatalf("EBUSY rejections = %d, want >= 9 (cap of %d slots)", busy, slotCount)
	}
	if r.fe.Rejected != uint64(busy) {
		t.Fatalf("frontend Rejected = %d, busy = %d", r.fe.Rejected, busy)
	}
}

func TestFreeBSDGuestOverLinuxDriverVM(t *testing.T) {
	// The cross-OS deployment of §5.1: FreeBSD guest, Linux driver VM.
	r := newRig(t, Interrupts, kernel.FreeBSD)
	if r.guestK.Flavor != kernel.FreeBSD || r.driverK.Flavor != kernel.Linux {
		t.Fatal("rig flavors wrong")
	}
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("bsd app, linux driver")
		src, _ := p.AllocBytes(msg)
		if _, err := tk.Write(fd, src, len(msg)); err != nil {
			t.Fatal(err)
		}
		// mmap works because the FreeBSD kernel patch passes the VA range.
		va, err := tk.Mmap(fd, mem.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if err := p.UserRead(tk, va, buf); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPollingModeStillCorrect(t *testing.T) {
	r := newRig(t, Polling, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		msg := []byte("polled path data")
		src, _ := p.AllocBytes(msg)
		if _, err := tk.Write(fd, src, len(msg)); err != nil {
			t.Fatal(err)
		}
		dst, _ := p.Alloc(32)
		n, err := tk.Read(fd, dst, 32)
		if err != nil || n != len(msg) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		got := make([]byte, n)
		_ = p.Mem.Read(dst, got)
		if !bytes.Equal(got, msg) {
			t.Fatalf("got %q", got)
		}
	})
	if r.be.PolledPosts == 0 {
		t.Fatal("polling mode never hit the polled fast path")
	}
}

func TestFIFOOrdering(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent("opened")
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.OWrOnly)
		opened.Trigger()
	})
	// Writers post in a fixed order at the same instant; the backend must
	// execute them in post order (slot seq FIFO).
	for i := 0; i < 5; i++ {
		i := i
		app.SpawnTask("writer", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			src, _ := app.AllocBytes([]byte{byte('A' + i)})
			if _, err := tk.Write(fd, src, 1); err != nil {
				t.Error(err)
			}
		})
	}
	r.env.Run()
	if string(r.drv.data) != "ABCDE" {
		t.Fatalf("driver saw order %q, want ABCDE", r.drv.data)
	}
}

func TestGrantSlotsRecycled(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		src, _ := p.AllocBytes(bytes.Repeat([]byte{1}, 16))
		// Far more operations than the grant table has slots: each op's
		// grant must be revoked after its round trip.
		for i := 0; i < 300; i++ {
			if _, err := tk.Write(fd, src, 16); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	})
}
