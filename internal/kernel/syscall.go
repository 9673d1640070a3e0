package kernel

import (
	"paradice/internal/devfile"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// This file is the system-call layer: the entry points application code
// uses to reach device files. Each call charges system-call cost and
// dispatches to the device's file operations — which may belong to a real
// driver (native and driver-VM cases) or to the CVD frontend (guest case).
//
// The system-call boundary is also where a request's trace begins: opBegin
// allocates the request ID, binds it to the calling sim proc (so layers that
// only see the Env — hypervisor, IOMMU — can attribute their spans), and
// opEnd closes the root span covering the operation end to end.

// opBegin opens one system call: a fresh request ID bound to the calling
// proc, the start time of the root span, and the system-call entry/exit
// charge as the request's first work span. Returns (nil, 0, 0) when tracing
// is disabled — the nil tracer makes every later call a no-op, and no
// allocation has happened.
func (t *Task) opBegin() (*trace.Tracer, uint64, sim.Time) {
	tr := trace.Get(t.Proc.K.Env)
	rid := tr.NewRID()
	tr.Bind(t.sp, rid)
	start := tr.Now()
	perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerSyscall, "syscall", perf.CostSyscall)
	return tr, rid, start
}

// opEnd closes the request's root span and releases the proc binding.
func (t *Task) opEnd(tr *trace.Tracer, rid uint64, start sim.Time, op, path string) {
	if tr == nil {
		return
	}
	tr.Unbind(t.sp)
	tr.Group(rid, t.Proc.K.Name, trace.LayerSyscall, op+" "+path, start, tr.Now())
}

func (t *Task) file(fd int) (*File, error) {
	f, ok := t.Proc.fds[fd]
	if !ok {
		return nil, EINVAL
	}
	return f, nil
}

// Open opens a device file and returns a file descriptor.
func (t *Task) Open(path string, flags devfile.OpenFlags) (int, error) {
	tr, rid, start := t.opBegin()
	node, ok := t.Proc.K.LookupDevice(path)
	if !ok {
		t.opEnd(tr, rid, start, "open", path)
		return -1, ENOENT
	}
	f := &File{Node: node, Flags: flags, Proc: t.Proc, refs: 1}
	c := &FopCtx{Task: t, File: f, RID: rid}
	if err := node.Ops.Open(c); err != nil {
		t.opEnd(tr, rid, start, "open", path)
		return -1, err
	}
	fd := t.Proc.nextFD
	t.Proc.nextFD++
	t.Proc.fds[fd] = f
	t.opEnd(tr, rid, start, "open", path)
	return fd, nil
}

// Close releases a file descriptor, invoking the driver's release handler
// on the last reference.
func (t *Task) Close(fd int) error {
	tr, rid, start := t.opBegin()
	f, err := t.file(fd)
	if err != nil {
		t.opEnd(tr, rid, start, "close", "?")
		return err
	}
	delete(t.Proc.fds, fd)
	f.refs--
	if f.refs == 0 {
		err = f.Node.Ops.Release(&FopCtx{Task: t, File: f, RID: rid})
	} else {
		err = nil
	}
	t.opEnd(tr, rid, start, "close", f.Node.Path)
	return err
}

// Read reads up to n bytes of device data into the user buffer at buf.
func (t *Task) Read(fd int, buf mem.GuestVirt, n int) (int, error) {
	tr, rid, start := t.opBegin()
	f, err := t.file(fd)
	if err != nil {
		t.opEnd(tr, rid, start, "read", "?")
		return 0, err
	}
	ret, err := f.Node.Ops.Read(&FopCtx{Task: t, File: f, RID: rid}, buf, n)
	t.opEnd(tr, rid, start, "read", f.Node.Path)
	return ret, err
}

// Write writes up to n bytes from the user buffer at buf to the device.
func (t *Task) Write(fd int, buf mem.GuestVirt, n int) (int, error) {
	tr, rid, start := t.opBegin()
	f, err := t.file(fd)
	if err != nil {
		t.opEnd(tr, rid, start, "write", "?")
		return 0, err
	}
	ret, err := f.Node.Ops.Write(&FopCtx{Task: t, File: f, RID: rid}, buf, n)
	t.opEnd(tr, rid, start, "write", f.Node.Path)
	return ret, err
}

// Ioctl issues a device-specific command. arg is the untyped pointer
// argument — for _IOR/_IOW/_IOWR commands, a user-space address.
func (t *Task) Ioctl(fd int, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	tr, rid, start := t.opBegin()
	f, err := t.file(fd)
	if err != nil {
		t.opEnd(tr, rid, start, "ioctl", "?")
		return 0, err
	}
	ret, err := f.Node.Ops.Ioctl(&FopCtx{Task: t, File: f, RID: rid}, cmd, arg)
	t.opEnd(tr, rid, start, "ioctl", f.Node.Path)
	return ret, err
}

// Mmap maps length bytes of the device at page offset pgoff into the
// process address space and returns the chosen virtual address.
func (t *Task) Mmap(fd int, length uint64, pgoff uint64) (mem.GuestVirt, error) {
	tr, rid, start := t.opBegin()
	base, err := t.mmap(fd, length, pgoff, rid)
	path := "?"
	if f, ferr := t.file(fd); ferr == nil {
		path = f.Node.Path
	}
	t.opEnd(tr, rid, start, "mmap", path)
	return base, err
}

func (t *Task) mmap(fd int, length uint64, pgoff uint64, rid uint64) (mem.GuestVirt, error) {
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if length == 0 {
		return 0, EINVAL
	}
	base, err := t.Proc.reserveMmapRange(length)
	if err != nil {
		return 0, err
	}
	v := &VMA{Proc: t.Proc, Start: base, Len: length, File: f, Pgoff: pgoff}
	if t.Proc.K.Flavor == FreeBSD && !t.Proc.K.freeBSDMmapPatch {
		// Unpatched FreeBSD does not hand the handler the VA range the
		// mapping will occupy; the CVD frontend (and the Linux drivers
		// behind it) need those addresses, which is why the paper adds
		// ~12 LoC to the FreeBSD kernel (§5.1).
		v = &VMA{Proc: t.Proc, Len: length, File: f, Pgoff: pgoff}
	}
	if err := f.Node.Ops.Mmap(&FopCtx{Task: t, File: f, RID: rid}, v); err != nil {
		return 0, err
	}
	v.Start = base
	t.Proc.vmas = append(t.Proc.vmas, v)
	return base, nil
}

// Munmap tears down an mmap'ed range: the kernel destroys its own
// page-table entries first, and only then informs the mapping's owner
// (driver or CVD frontend), per the ordering in §5.2.
func (t *Task) Munmap(va mem.GuestVirt, length uint64) error {
	tr, rid, start := t.opBegin()
	var v *VMA
	var idx int
	for i, cand := range t.Proc.vmas {
		if cand.Start == va && cand.Len == length {
			v, idx = cand, i
			break
		}
	}
	if v == nil {
		t.opEnd(tr, rid, start, "munmap", "?")
		return EINVAL
	}
	path := "?"
	if v.File != nil {
		path = v.File.Node.Path
	}
	for page := range v.mapped {
		if err := t.Proc.PT.Unmap(page); err != nil {
			t.opEnd(tr, rid, start, "munmap", path)
			return err
		}
	}
	t.Proc.vmas = append(t.Proc.vmas[:idx], t.Proc.vmas[idx+1:]...)
	var err error
	if v.OnUnmap != nil {
		err = v.OnUnmap(&FopCtx{Task: t, File: v.File, RID: rid}, v)
	}
	t.opEnd(tr, rid, start, "munmap", path)
	return err
}

// Poll waits up to timeout for any event in want on fd, returning the ready
// mask (0 on timeout). A negative timeout means wait forever.
func (t *Task) Poll(fd int, want devfile.PollMask, timeout sim.Duration) (devfile.PollMask, error) {
	tr, rid, start := t.opBegin()
	f, err := t.file(fd)
	if err != nil {
		t.opEnd(tr, rid, start, "poll", "?")
		return 0, err
	}
	c := &FopCtx{Task: t, File: f, RID: rid}
	deadline := t.Proc.K.Env.Now().Add(timeout)
	for {
		pt := t.Proc.K.NewPollTable()
		pt.Want = want
		mask := f.Node.Ops.Poll(c, pt)
		if mask&(want|devfile.PollErr|devfile.PollHup) != 0 {
			t.opEnd(tr, rid, start, "poll", f.Node.Path)
			return mask, nil
		}
		var wait sim.Duration
		if timeout < 0 {
			wait = sim.Duration(1 << 60)
		} else {
			wait = deadline.Sub(t.Proc.K.Env.Now())
			if wait <= 0 {
				t.opEnd(tr, rid, start, "poll", f.Node.Path)
				return 0, nil
			}
		}
		if !pt.wait(t, wait) && timeout >= 0 {
			t.opEnd(tr, rid, start, "poll", f.Node.Path)
			return 0, nil
		}
	}
}

// SetFasync arms or disarms SIGIO notification on fd (the fcntl FASYNC
// path; §2.1's asynchronous notification).
func (t *Task) SetFasync(fd int, on bool) error {
	tr, rid, start := t.opBegin()
	f, err := t.file(fd)
	if err != nil {
		t.opEnd(tr, rid, start, "fasync", "?")
		return err
	}
	if err := f.Node.Ops.Fasync(&FopCtx{Task: t, File: f, RID: rid}, on); err != nil {
		t.opEnd(tr, rid, start, "fasync", f.Node.Path)
		return err
	}
	f.FasyncOn = on
	t.opEnd(tr, rid, start, "fasync", f.Node.Path)
	return nil
}
