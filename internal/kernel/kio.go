package kernel

import (
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/trace"
)

// This file is the kernel's user-memory access layer — the 13 functions the
// paper wraps with stubs in the driver VM kernel (§5.2), collapsed to the
// four that matter architecturally. Device drivers must use these for every
// touch of process memory. When the calling task is marked (a CVD backend
// worker executing a guest's file operation), the access is redirected to
// the hypervisor API; otherwise it acts on the local process address space.

// CopyFromUser copies len(buf) bytes from the user address src of the
// process the task is working for.
func CopyFromUser(c *FopCtx, src mem.GuestVirt, buf []byte) error {
	t := c.Task
	if t.Marked {
		return t.Remote.CopyFromUser(src, buf)
	}
	perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerDriver, "copy-from-user", perf.Copy(len(buf), int(mem.PagesSpanned(uint64(src), uint64(len(buf))))))
	return t.Proc.UserRead(t, src, buf)
}

// CopyToUser copies data to the user address dst.
func CopyToUser(c *FopCtx, dst mem.GuestVirt, data []byte) error {
	t := c.Task
	if t.Marked {
		return t.Remote.CopyToUser(dst, data)
	}
	perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerDriver, "copy-to-user", perf.Copy(len(data), int(mem.PagesSpanned(uint64(dst), uint64(len(data))))))
	return t.Proc.UserWrite(t, dst, data)
}

// InsertPFN maps the driver-VM page frame pfn (a guest-physical page of the
// kernel the driver runs in — RAM or a device BAR) at user address va. This
// is the paper's insert_pfn wrapper stub.
func InsertPFN(c *FopCtx, va mem.GuestVirt, pfn mem.GuestPhys) error {
	t := c.Task
	if !mem.PageAligned(uint64(va)) || !mem.PageAligned(uint64(pfn)) {
		return EINVAL
	}
	if t.Marked {
		if err := t.Remote.MapPage(va, pfn); err != nil {
			return err
		}
	} else {
		perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerDriver, "insert-pfn", perf.CostMapPage)
		if err := t.Proc.PT.Map(va, pfn, mem.PermRW); err != nil {
			return EFAULT
		}
	}
	if v, ok := c.File.Proc.FindVMA(va); ok {
		v.notePage(va)
	}
	return nil
}
