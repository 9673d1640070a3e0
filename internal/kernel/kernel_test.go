package kernel

import (
	"bytes"
	"errors"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// newTestKernel boots a kernel over 8 MiB of EPT-backed RAM.
func newTestKernel(t testing.TB, flavor Flavor) *Kernel {
	t.Helper()
	env := sim.NewEnv()
	phys := mem.NewPhysMem()
	const ram = 8 << 20
	alloc := phys.NewAllocator("ram", 0x1000_0000, ram)
	base, err := alloc.AllocPages(ram / mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ept := mem.NewEPT()
	if err := ept.MapRange(0, base, ram/mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	space := &mem.GuestSpace{Phys: phys, EPT: ept}
	return New("testvm", flavor, env, space, ram)
}

// echoDriver is a toy device: Write stores bytes, Read returns them, an
// ioctl reverses a user buffer in place, Mmap exposes a device page.
type echoDriver struct {
	BaseOps
	data    []byte
	wq      *WaitQueue
	devPage mem.GuestPhys // "device memory" page (a kernel frame here)
	opens   int
	fasyncs []*File
}

const (
	echoReverse = devfile.IoctlCmd(0xBEEF)
	echoNoop    = devfile.IoctlCmd(0xB000)
)

func (d *echoDriver) Open(c *FopCtx) error {
	d.opens++
	return nil
}

func (d *echoDriver) Release(c *FopCtx) error {
	d.opens--
	return nil
}

func (d *echoDriver) Read(c *FopCtx, dst mem.GuestVirt, n int) (int, error) {
	for len(d.data) == 0 {
		if c.File.Nonblock() {
			return 0, EAGAIN
		}
		d.wq.Wait(c.Task)
	}
	if n > len(d.data) {
		n = len(d.data)
	}
	if err := CopyToUser(c, dst, d.data[:n]); err != nil {
		return 0, err
	}
	d.data = d.data[n:]
	return n, nil
}

func (d *echoDriver) Write(c *FopCtx, src mem.GuestVirt, n int) (int, error) {
	buf := make([]byte, n)
	if err := CopyFromUser(c, src, buf); err != nil {
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

func (d *echoDriver) Ioctl(c *FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	switch cmd {
	case echoReverse:
		var hdr [8]byte // {va lo32, len}
		if err := CopyFromUser(c, arg, hdr[:]); err != nil {
			return 0, err
		}
		bufVA := mem.GuestVirt(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
		n := int(hdr[4])
		buf := make([]byte, n)
		if err := CopyFromUser(c, bufVA, buf); err != nil {
			return 0, err
		}
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
		if err := CopyToUser(c, bufVA, buf); err != nil {
			return 0, err
		}
		return int32(n), nil
	case echoNoop:
		return 0, nil
	}
	return 0, ENOTTY
}

func (d *echoDriver) Mmap(c *FopCtx, v *VMA) error {
	if v.Start == 0 {
		return EINVAL // needs the VA range (FreeBSD patch test)
	}
	return nil // demand-fault
}

func (d *echoDriver) Fault(c *FopCtx, v *VMA, va mem.GuestVirt) error {
	return InsertPFN(c, va, d.devPage)
}

func (d *echoDriver) Poll(c *FopCtx, pt *PollTable) devfile.PollMask {
	pt.Register(d.wq)
	if len(d.data) > 0 {
		return devfile.PollIn
	}
	return 0
}

func (d *echoDriver) Fasync(c *FopCtx, on bool) error {
	if on {
		d.fasyncs = append(d.fasyncs, c.File)
	}
	return nil
}

func installEcho(t testing.TB, k *Kernel) *echoDriver {
	t.Helper()
	page, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	d := &echoDriver{wq: k.NewWaitQueue("echo"), devPage: page}
	k.RegisterDevice("/dev/echo", d, d)
	return d
}

func TestOpenMissingDevice(t *testing.T) {
	k := newTestKernel(t, Linux)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		if _, err := tk.Open("/dev/nope", devfile.ORdWr); !IsErrno(err, ENOENT) {
			t.Errorf("open missing: %v, want ENOENT", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd, err := tk.Open("/dev/echo", devfile.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("hello, device file boundary")
		src, _ := p.AllocBytes(msg)
		if n, err := tk.Write(fd, src, len(msg)); err != nil || n != len(msg) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		dst, _ := p.Alloc(64)
		n, err := tk.Read(fd, dst, 64)
		if err != nil || n != len(msg) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		got := make([]byte, n)
		if err := p.Mem.Read(dst, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("read back %q, want %q", got, msg)
		}
		if err := tk.Close(fd); err != nil {
			t.Fatal(err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockingReadWakesOnWrite(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	reader, _ := k.NewProcess("reader")
	writer, _ := k.NewProcess("writer")
	var gotAt sim.Time
	reader.SpawnTask("r", func(tk *Task) {
		fd, _ := tk.Open("/dev/echo", devfile.ORdOnly)
		dst, _ := reader.Alloc(16)
		n, err := tk.Read(fd, dst, 16)
		if err != nil || n != 2 {
			t.Errorf("blocking read: n=%d err=%v", n, err)
		}
		gotAt = tk.Sim().Now()
	})
	writer.SpawnTask("w", func(tk *Task) {
		tk.Sim().Sleep(100 * sim.Microsecond)
		fd, _ := tk.Open("/dev/echo", devfile.OWrOnly)
		src, _ := writer.AllocBytes([]byte("hi"))
		if _, err := tk.Write(fd, src, 2); err != nil {
			t.Error(err)
		}
	})
	k.Env.Run()
	if gotAt < sim.Time(100*sim.Microsecond) {
		t.Fatalf("reader returned at %v, before the write", gotAt)
	}
	// The reader paid the wake-up latency.
	if gotAt < sim.Time(100*sim.Microsecond+30*sim.Microsecond) {
		t.Fatalf("reader returned at %v; expected wake-up cost after the write", gotAt)
	}
}

func TestNonblockReadReturnsEAGAIN(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd, _ := tk.Open("/dev/echo", devfile.ORdOnly|devfile.ONonblock)
		dst, _ := p.Alloc(16)
		if _, err := tk.Read(fd, dst, 16); !IsErrno(err, EAGAIN) {
			t.Errorf("nonblock read of empty device: %v, want EAGAIN", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestIoctlReversesUserBuffer(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd, _ := tk.Open("/dev/echo", devfile.ORdWr)
		payload := []byte("abcdef")
		bufVA, _ := p.AllocBytes(payload)
		hdr := []byte{byte(bufVA), byte(bufVA >> 8), byte(bufVA >> 16), byte(bufVA >> 24), byte(len(payload)), 0, 0, 0}
		argVA, _ := p.AllocBytes(hdr)
		ret, err := tk.Ioctl(fd, echoReverse, argVA)
		if err != nil || ret != int32(len(payload)) {
			t.Fatalf("ioctl: ret=%d err=%v", ret, err)
		}
		got := make([]byte, len(payload))
		if err := p.Mem.Read(bufVA, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "fedcba" {
			t.Fatalf("buffer = %q, want fedcba", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMmapFaultMapsDevicePage(t *testing.T) {
	k := newTestKernel(t, Linux)
	d := installEcho(t, k)
	// Put a marker in the "device page" so the process can see it.
	marker := []byte("device-page-bytes")
	if err := k.Space.Write(d.devPage, marker); err != nil {
		t.Fatal(err)
	}
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd, _ := tk.Open("/dev/echo", devfile.ORdWr)
		va, err := tk.Mmap(fd, mem.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(marker))
		// This access faults, runs the driver's fault handler, retries.
		if err := p.UserRead(tk, va, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marker) {
			t.Fatalf("mmap read %q, want %q", got, marker)
		}
		v, ok := p.FindVMA(va)
		if !ok || v.MappedPages() != 1 {
			t.Fatalf("VMA bookkeeping: ok=%v pages=%d", ok, v.MappedPages())
		}
		if err := tk.Munmap(va, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := p.UserRead(tk, va, got); !IsErrno(err, EFAULT) {
			t.Fatalf("read after munmap: %v, want EFAULT", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeBSDMmapPatch(t *testing.T) {
	k := newTestKernel(t, FreeBSD)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd, _ := tk.Open("/dev/echo", devfile.ORdWr)
		// Patched (default): driver sees the VA range and accepts.
		if _, err := tk.Mmap(fd, mem.PageSize, 0); err != nil {
			t.Fatalf("patched FreeBSD mmap: %v", err)
		}
		// Unpatched: the handler cannot learn the VA range and fails —
		// demonstrating why the paper patches the FreeBSD kernel.
		k.SetFreeBSDMmapPatch(false)
		if _, err := tk.Mmap(fd, mem.PageSize, 0); !IsErrno(err, EINVAL) {
			t.Fatalf("unpatched FreeBSD mmap: %v, want EINVAL", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPollTimeoutAndReady(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd, _ := tk.Open("/dev/echo", devfile.ORdWr)
		start := tk.Sim().Now()
		mask, err := tk.Poll(fd, devfile.PollIn, 50*sim.Microsecond)
		if err != nil || mask != 0 {
			t.Fatalf("poll timeout: mask=%v err=%v", mask, err)
		}
		if e := tk.Sim().Now().Sub(start); e < 50*sim.Microsecond {
			t.Fatalf("poll returned after %v, want >= 50µs", e)
		}
		// Make it ready, poll again.
		src, _ := p.AllocBytes([]byte("x"))
		if _, err := tk.Write(fd, src, 1); err != nil {
			t.Fatal(err)
		}
		mask, err = tk.Poll(fd, devfile.PollIn, 50*sim.Microsecond)
		if err != nil || mask&devfile.PollIn == 0 {
			t.Fatalf("poll ready: mask=%v err=%v", mask, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPollWokenByWriter(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	w, _ := k.NewProcess("writer")
	var mask devfile.PollMask
	p.SpawnTask("poller", func(tk *Task) {
		fd, _ := tk.Open("/dev/echo", devfile.ORdOnly)
		mask, _ = tk.Poll(fd, devfile.PollIn, -1)
	})
	w.SpawnTask("writer", func(tk *Task) {
		tk.Sim().Sleep(80 * sim.Microsecond)
		fd, _ := tk.Open("/dev/echo", devfile.OWrOnly)
		src, _ := w.AllocBytes([]byte("y"))
		_, _ = tk.Write(fd, src, 1)
	})
	k.Env.Run()
	if mask&devfile.PollIn == 0 {
		t.Fatalf("poller mask = %v, want PollIn", mask)
	}
	if d := k.Env.Deadlocked(); len(d) != 0 {
		t.Fatalf("deadlocked: %v", d)
	}
}

func TestFasyncDeliversSIGIO(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	p, _ := k.NewProcess("app")
	w, _ := k.NewProcess("writer")
	sigios := 0
	p.OnSIGIO(func() { sigios++ })
	p.SpawnTask("main", func(tk *Task) {
		fd, _ := tk.Open("/dev/echo", devfile.ORdOnly)
		if err := tk.SetFasync(fd, true); err != nil {
			t.Error(err)
		}
	})
	w.SpawnTask("writer", func(tk *Task) {
		tk.Sim().Sleep(10 * sim.Microsecond)
		fd, _ := tk.Open("/dev/echo", devfile.OWrOnly)
		src, _ := w.AllocBytes([]byte("z"))
		_, _ = tk.Write(fd, src, 1)
	})
	k.Env.Run()
	if sigios != 1 {
		t.Fatalf("SIGIO delivered %d times, want 1", sigios)
	}
}

func TestOpenReleaseRefcount(t *testing.T) {
	k := newTestKernel(t, Linux)
	d := installEcho(t, k)
	p, _ := k.NewProcess("app")
	if err := p.RunTask("main", func(tk *Task) error {
		fd1, _ := tk.Open("/dev/echo", devfile.ORdWr)
		fd2, _ := tk.Open("/dev/echo", devfile.ORdWr)
		if d.opens != 2 {
			t.Fatalf("opens = %d, want 2", d.opens)
		}
		_ = tk.Close(fd1)
		_ = tk.Close(fd2)
		if d.opens != 0 {
			t.Fatalf("opens after close = %d, want 0", d.opens)
		}
		if err := tk.Close(fd1); !IsErrno(err, EINVAL) {
			t.Fatalf("double close: %v, want EINVAL", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFrameReuse(t *testing.T) {
	k := newTestKernel(t, Linux)
	f1, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	// Dirty it, free it, re-alloc: must come back zeroed.
	if err := k.Space.Write(f1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	k.FreeFrame(f1)
	f2, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f1 {
		t.Fatalf("free list not reused: %v then %v", f1, f2)
	}
	var b [3]byte
	if err := k.Space.Read(f2, b[:]); err != nil {
		t.Fatal(err)
	}
	if b != [3]byte{} {
		t.Fatalf("recycled frame not zeroed: %v", b)
	}
}

func TestSysInfo(t *testing.T) {
	k := newTestKernel(t, Linux)
	k.SetSysInfo("gpu/vendor", "0x1002")
	if v, ok := k.SysInfo("gpu/vendor"); !ok || v != "0x1002" {
		t.Fatalf("SysInfo = %q, %v", v, ok)
	}
	if _, ok := k.SysInfo("missing"); ok {
		t.Fatal("missing key reported present")
	}
}

// DevicePaths lists devfs in sorted order, so whatever prints it prints the
// same thing on every run.
func TestDevicePathsSorted(t *testing.T) {
	k := newTestKernel(t, Linux)
	want := []string{"/dev/a", "/dev/b", "/dev/dri/card0", "/dev/m", "/dev/snd/pcm", "/dev/z"}
	for _, i := range []int{3, 5, 0, 2, 4, 1} {
		d := &echoDriver{}
		k.RegisterDevice(want[i], d, d)
	}
	for run := 0; run < 20; run++ {
		got := k.DevicePaths()
		if len(got) != len(want) {
			t.Fatalf("DevicePaths() = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DevicePaths() = %v, want %v", got, want)
			}
		}
	}
}

func TestProcessAllocDistinct(t *testing.T) {
	k := newTestKernel(t, Linux)
	p, _ := k.NewProcess("app")
	a, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mem.Write(a, []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := p.Mem.Write(b, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := p.Mem.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAA" {
		t.Fatalf("allocation a corrupted: %q", got)
	}
}

func TestTwoProcessesIsolatedAddressSpaces(t *testing.T) {
	k := newTestKernel(t, Linux)
	p1, _ := k.NewProcess("p1")
	p2, _ := k.NewProcess("p2")
	a1, _ := p1.AllocBytes([]byte("p1-secret"))
	a2, _ := p2.AllocBytes([]byte("p2-secret"))
	// Same VA in both processes maps to different frames.
	if a1 != a2 {
		t.Fatalf("heap bases differ: %v vs %v — test assumes same layout", a1, a2)
	}
	g1 := make([]byte, 9)
	g2 := make([]byte, 9)
	if err := p1.Mem.Read(a1, g1); err != nil {
		t.Fatal(err)
	}
	if err := p2.Mem.Read(a2, g2); err != nil {
		t.Fatal(err)
	}
	if string(g1) != "p1-secret" || string(g2) != "p2-secret" {
		t.Fatalf("cross-process aliasing: %q / %q", g1, g2)
	}
}

func TestMarkRestore(t *testing.T) {
	k := newTestKernel(t, Linux)
	p, _ := k.NewProcess("app")
	tk := &Task{Proc: p, Name: "t"}
	restore := tk.Mark(nil)
	if !tk.Marked {
		t.Fatal("Mark did not set flag")
	}
	restore()
	if tk.Marked {
		t.Fatal("restore did not clear flag")
	}
}

// TestRunTaskReportsUnfinishedTask: a body still blocked when the calendar
// drains is an error naming its task, never a silent success; a body that
// returns has its own error passed through.
func TestRunTaskReportsUnfinishedTask(t *testing.T) {
	k := newTestKernel(t, Linux)
	defer k.Env.Close()
	p, _ := k.NewProcess("app")
	never := k.Env.NewEvent("never")
	err := p.RunTask("stuck", func(tk *Task) error {
		tk.Sim().Wait(never)
		return nil
	})
	if err == nil || err.Error() != "kernel: task app/stuck did not finish" {
		t.Fatalf("blocked task: err = %v, want it named unfinished", err)
	}
	if err := p.RunTask("fails", func(*Task) error { return ENOTTY }); err != ENOTTY {
		t.Fatalf("finished task: err = %v, want ENOTTY", err)
	}
	if err := p.RunTask("ok", func(*Task) error { return nil }); err != nil {
		t.Fatalf("finished task: err = %v, want nil", err)
	}
}

// TestSyscallClosesOneRootGroup: under a tracer, every fd-based system call
// on an open fd and on one never opened ends its request exactly once — one
// root group named "<op> <path>" or "<op> ?", every event of the call
// carrying that group's request ID — and leaves the proc serving none.
func TestSyscallClosesOneRootGroup(t *testing.T) {
	k := newTestKernel(t, Linux)
	installEcho(t, k)
	tr := trace.New()
	trace.Install(k.Env, tr)
	p, _ := k.NewProcess("app")
	calls := []struct {
		op string
		do func(tk *Task, fd int, buf mem.GuestVirt) error
	}{
		{"write", func(tk *Task, fd int, buf mem.GuestVirt) error { _, err := tk.Write(fd, buf, 8); return err }},
		{"read", func(tk *Task, fd int, buf mem.GuestVirt) error { _, err := tk.Read(fd, buf, 8); return err }},
		{"ioctl", func(tk *Task, fd int, _ mem.GuestVirt) error { _, err := tk.Ioctl(fd, echoNoop, 0); return err }},
		{"mmap", func(tk *Task, fd int, _ mem.GuestVirt) error { _, err := tk.Mmap(fd, mem.PageSize, 0); return err }},
		{"poll", func(tk *Task, fd int, _ mem.GuestVirt) error { _, err := tk.Poll(fd, devfile.PollIn, 0); return err }},
		{"fasync", func(tk *Task, fd int, _ mem.GuestVirt) error { return tk.SetFasync(fd, true) }},
		{"close", func(tk *Task, fd int, _ mem.GuestVirt) error { return tk.Close(fd) }},
	}
	if err := p.RunTask("main", func(tk *Task) error {
		tk.QoS = 3
		buf, err := p.Alloc(8)
		if err != nil {
			return err
		}
		fd, err := tk.Open("/dev/echo", devfile.ORdWr|devfile.ONonblock)
		if err != nil {
			return err
		}
		for _, target := range []struct {
			fd   int
			path string
		}{{fd, "/dev/echo"}, {fd + 100, "?"}} {
			for _, c := range calls {
				from := len(tr.Events())
				err := c.do(tk, target.fd, buf)
				if (err == nil) != (target.path != "?") {
					t.Errorf("%s on %s: err = %v", c.op, target.path, err)
				}
				var roots []trace.Event
				evs := tr.Events()[from:]
				for _, e := range evs {
					if e.Kind == trace.KindGroup {
						roots = append(roots, e)
					}
				}
				want := c.op + " " + target.path
				if len(roots) != 1 || roots[0].Name != want || roots[0].RID == 0 {
					t.Errorf("%s: root groups %+v, want one named %q", want, roots, want)
					continue
				}
				if roots[0].Class != 3 || roots[0].Errno != int32(ErrnoOf(err)) {
					t.Errorf("%s: root carries class %d errno %d, want the task's 3 and the call's %d",
						want, roots[0].Class, roots[0].Errno, ErrnoOf(err))
				}
				for _, e := range evs {
					if e.RID != roots[0].RID {
						t.Errorf("%s: event %q has rid %d, want the root's %d", want, e.Name, e.RID, roots[0].RID)
					}
				}
				if rid := tk.Sim().RID(); rid != 0 {
					t.Errorf("%s: proc still serves rid %d", want, rid)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A system call reports nil as 0, an errno as itself, and any other error
// as EIO.
func TestErrnoOf(t *testing.T) {
	for _, c := range []struct {
		err  error
		want Errno
	}{{nil, 0}, {EAGAIN, EAGAIN}, {errors.New("no number"), EIO}} {
		if got := ErrnoOf(c.err); got != c.want {
			t.Errorf("ErrnoOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
