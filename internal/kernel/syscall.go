package kernel

import (
	"slices"

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
// allocates the request ID and makes the calling sim proc serve it, so every
// layer the call reaches (the hypervisor and IOMMU, which only see the Env,
// and the CVD frontend, which posts it in the ring slot) attributes its spans
// by reading the proc. opEnd closes the root span covering the operation end
// to end, handing the tracer the task's QoS class and the errno the call
// returned: what the application got, recorded once, whether a local driver
// or the CVD frontend served the call. Every fd-based call runs inside one
// envelope, sys, which resolves the descriptor, builds the call's FopCtx and
// ends the request exactly once; Open and Munmap, keyed by path and address
// instead, close their span with one deferred opEnd.

// opBegin opens one system call: a fresh request ID served by the calling
// proc, the start time of the root span, and the system-call entry/exit
// charge as the request's first work span. Returns (nil, 0) when tracing is
// disabled — the nil tracer makes every later call a no-op, the proc serves
// request 0, and no allocation has happened.
func (t *Task) opBegin() (*trace.Tracer, sim.Time) {
	tr := trace.Get(t.Proc.K.Env)
	t.sp.SetRID(tr.NewRID())
	start := tr.Now()
	perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerSyscall, "syscall", perf.CostSyscall)
	return tr, start
}

// opEnd closes the request's root span with the task's class and the
// call's errno, and ends the proc's service of the request.
func (t *Task) opEnd(tr *trace.Tracer, start sim.Time, op, path string, err error) {
	if tr == nil {
		return
	}
	rid := t.sp.RID()
	t.sp.SetRID(0)
	tr.Root(rid, t.Proc.K.Name, op+" "+path, start, tr.Now(), t.QoS, int32(ErrnoOf(err)))
}

// sys is the envelope of every fd-based system call. It opens the request
// (opBegin), resolves fd, runs call with the request's one FopCtx, and closes
// the root span once, named by the file's path, or "?" when fd is not open
// (the call then fails with EINVAL without reaching a driver). The FopCtx
// lives in the Task, which makes one system call at a time.
func sys[T any](t *Task, op string, fd int, call func(c *FopCtx) (T, error)) (T, error) {
	tr, start := t.opBegin()
	path := "?"
	var ret T
	var err error = EINVAL
	if f, ok := t.Proc.fds[fd]; ok {
		path = f.Node.Path
		t.fop = FopCtx{Task: t, File: f}
		ret, err = call(&t.fop)
	}
	t.opEnd(tr, start, op, path, err)
	return ret, err
}

// Open opens a device file and returns a file descriptor.
func (t *Task) Open(path string, flags devfile.OpenFlags) (fd int, err error) {
	tr, start := t.opBegin()
	defer func() { t.opEnd(tr, start, "open", path, err) }()
	node, ok := t.Proc.K.LookupDevice(path)
	if !ok {
		return -1, ENOENT
	}
	f := &File{Node: node, Flags: flags, Proc: t.Proc, refs: 1}
	if err = node.Ops.Open(&FopCtx{Task: t, File: f}); err != nil {
		return -1, err
	}
	fd = t.Proc.nextFD
	t.Proc.nextFD++
	t.Proc.fds[fd] = f
	return fd, nil
}

// Close releases a file descriptor, invoking the driver's release handler
// on the last reference.
func (t *Task) Close(fd int) error {
	_, err := sys(t, "close", fd, func(c *FopCtx) (struct{}, error) {
		delete(t.Proc.fds, fd)
		c.File.refs--
		if c.File.refs > 0 {
			return struct{}{}, nil
		}
		return struct{}{}, c.File.Node.Ops.Release(c)
	})
	return err
}

// Read reads up to n bytes of device data into the user buffer at buf.
func (t *Task) Read(fd int, buf mem.GuestVirt, n int) (int, error) {
	return sys(t, "read", fd, func(c *FopCtx) (int, error) {
		return c.File.Node.Ops.Read(c, buf, n)
	})
}

// Write writes up to n bytes from the user buffer at buf to the device.
func (t *Task) Write(fd int, buf mem.GuestVirt, n int) (int, error) {
	return sys(t, "write", fd, func(c *FopCtx) (int, error) {
		return c.File.Node.Ops.Write(c, buf, n)
	})
}

// Ioctl issues a device-specific command. arg is the untyped pointer
// argument — for _IOR/_IOW/_IOWR commands, a user-space address.
func (t *Task) Ioctl(fd int, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	return sys(t, "ioctl", fd, func(c *FopCtx) (int32, error) {
		return c.File.Node.Ops.Ioctl(c, cmd, arg)
	})
}

// Mmap maps length bytes of the device at page offset pgoff into the
// process address space and returns the chosen virtual address.
func (t *Task) Mmap(fd int, length uint64, pgoff uint64) (mem.GuestVirt, error) {
	return sys(t, "mmap", fd, func(c *FopCtx) (mem.GuestVirt, error) {
		return t.mmap(c, length, pgoff)
	})
}

func (t *Task) mmap(c *FopCtx, length uint64, pgoff uint64) (mem.GuestVirt, error) {
	if length == 0 {
		return 0, EINVAL
	}
	base, err := t.Proc.reserveMmapRange(length)
	if err != nil {
		return 0, err
	}
	v := &VMA{Proc: t.Proc, Start: base, Len: length, File: c.File, Pgoff: pgoff}
	if t.Proc.K.Flavor == FreeBSD && !t.Proc.K.freeBSDMmapPatch {
		// Unpatched FreeBSD does not hand the handler the VA range the
		// mapping will occupy; the CVD frontend (and the Linux drivers
		// behind it) need those addresses, which is why the paper adds
		// ~12 LoC to the FreeBSD kernel (§5.1).
		v = &VMA{Proc: t.Proc, Len: length, File: c.File, Pgoff: pgoff}
	}
	if err := c.File.Node.Ops.Mmap(c, v); err != nil {
		return 0, err
	}
	v.Start = base
	t.Proc.vmas = append(t.Proc.vmas, v)
	return base, nil
}

// Munmap tears down an mmap'ed range: the kernel destroys its own
// page-table entries first, and only then informs the mapping's owner
// (driver or CVD frontend), per the ordering in §5.2.
func (t *Task) Munmap(va mem.GuestVirt, length uint64) (err error) {
	tr, start := t.opBegin()
	path := "?"
	defer func() { t.opEnd(tr, start, "munmap", path, err) }()
	idx := slices.IndexFunc(t.Proc.vmas, func(v *VMA) bool { return v.Start == va && v.Len == length })
	if idx < 0 {
		return EINVAL
	}
	v := t.Proc.vmas[idx]
	if v.File != nil {
		path = v.File.Node.Path
	}
	for page := range v.mapped {
		if err = t.Proc.PT.Unmap(page); err != nil {
			return err
		}
	}
	t.Proc.vmas = slices.Delete(t.Proc.vmas, idx, idx+1)
	if v.OnUnmap == nil {
		return nil
	}
	return v.OnUnmap(&FopCtx{Task: t, File: v.File}, v)
}

// Poll waits up to timeout for any event in want on fd, returning the ready
// mask (0 on timeout). A negative timeout means wait forever.
func (t *Task) Poll(fd int, want devfile.PollMask, timeout sim.Duration) (devfile.PollMask, error) {
	return sys(t, "poll", fd, func(c *FopCtx) (devfile.PollMask, error) {
		deadline := t.Proc.K.Env.Now().Add(timeout)
		for {
			pt := t.Proc.K.NewPollTable()
			pt.Want = want
			mask := c.File.Node.Ops.Poll(c, pt)
			if mask&(want|devfile.PollErr|devfile.PollHup) != 0 {
				return mask, nil
			}
			wait := sim.Duration(1 << 60)
			if timeout >= 0 {
				if wait = deadline.Sub(t.Proc.K.Env.Now()); wait <= 0 {
					return 0, nil
				}
			}
			if !pt.wait(t, wait) && timeout >= 0 {
				return 0, nil
			}
		}
	})
}

// SetFasync arms or disarms SIGIO notification on fd (the fcntl FASYNC
// path; §2.1's asynchronous notification).
func (t *Task) SetFasync(fd int, on bool) error {
	_, err := sys(t, "fasync", fd, func(c *FopCtx) (struct{}, error) {
		if err := c.File.Node.Ops.Fasync(c, on); err != nil {
			return struct{}{}, err
		}
		c.File.FasyncOn = on
		return struct{}{}, nil
	})
	return err
}

// Compute charges the task d of its application's own CPU time between
// system calls, an app-layer span called name.
func (t *Task) Compute(name string, d sim.Duration) {
	perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerApp, name, d)
}
