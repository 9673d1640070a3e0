package kernel

import (
	"paradice/internal/devfile"
	"paradice/internal/mem"
)

// FileOps is the file-operations table a device driver implements — the
// boundary Paradice paravirtualizes. Handlers receive user-space addresses
// and must touch user memory only through the kio functions (CopyToUser,
// CopyFromUser, InsertPFN), which is what lets the wrapper stubs redirect a
// marked task's memory operations to the hypervisor unmodified.
type FileOps interface {
	// Open is called when a process opens the device file. The handler may
	// set c.File.Priv to per-open state.
	Open(c *FopCtx) error
	// Release is called on the last close of the file.
	Release(c *FopCtx) error
	// Read copies up to n bytes of device data to user address dst.
	Read(c *FopCtx, dst mem.GuestVirt, n int) (int, error)
	// Write consumes up to n bytes of user data at src.
	Write(c *FopCtx, src mem.GuestVirt, n int) (int, error)
	// Ioctl performs the device-specific command with the untyped pointer
	// argument arg (a user-space address for _IOR/_IOW/_IOWR commands).
	Ioctl(c *FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error)
	// Mmap prepares a mapping of the device into [v.Start, v.Start+v.Len).
	// The handler either populates pages eagerly via InsertPFN or leaves
	// them to Fault.
	Mmap(c *FopCtx, v *VMA) error
	// Fault handles a page fault at va within an mmap'ed region.
	Fault(c *FopCtx, v *VMA, va mem.GuestVirt) error
	// Poll reports the current event mask and registers the poll table on
	// the driver's wait queues.
	Poll(c *FopCtx, pt *PollTable) devfile.PollMask
	// Fasync enables or disables asynchronous (SIGIO) notification.
	Fasync(c *FopCtx, on bool) error
}

// FopCtx is the context a file-operation handler runs with: the task
// performing the operation (possibly a marked CVD backend worker acting for
// a remote guest) and the open file.
type FopCtx struct {
	Task *Task
	File *File
}

// File is one open file description.
type File struct {
	Node  *DeviceNode
	Flags devfile.OpenFlags
	Proc  *Process // the opening process
	Priv  any      // driver per-open state
	// FasyncOn tracks whether SIGIO notification is armed for this file.
	FasyncOn bool
	refs     int
}

// Nonblock reports whether the file is in non-blocking mode.
func (f *File) Nonblock() bool { return f.Flags&devfile.ONonblock != 0 }

// BaseOps provides default file operations that fail with the conventional
// errno, so drivers implement only what their device class supports.
type BaseOps struct{}

// Open implements FileOps.
func (BaseOps) Open(*FopCtx) error { return nil }

// Release implements FileOps.
func (BaseOps) Release(*FopCtx) error { return nil }

// Read implements FileOps.
func (BaseOps) Read(*FopCtx, mem.GuestVirt, int) (int, error) { return 0, EINVAL }

// Write implements FileOps.
func (BaseOps) Write(*FopCtx, mem.GuestVirt, int) (int, error) { return 0, EINVAL }

// Ioctl implements FileOps.
func (BaseOps) Ioctl(*FopCtx, devfile.IoctlCmd, mem.GuestVirt) (int32, error) {
	return 0, ENOTTY
}

// Mmap implements FileOps.
func (BaseOps) Mmap(*FopCtx, *VMA) error { return ENODEV }

// Fault implements FileOps.
func (BaseOps) Fault(*FopCtx, *VMA, mem.GuestVirt) error { return EFAULT }

// Poll implements FileOps.
func (BaseOps) Poll(*FopCtx, *PollTable) devfile.PollMask {
	return devfile.PollIn | devfile.PollOut
}

// Fasync implements FileOps.
func (BaseOps) Fasync(*FopCtx, bool) error { return nil }

var _ FileOps = BaseOps{}
