package kernel

import "fmt"

// Errno is a Unix error number surfaced by system calls and file operations.
type Errno int

// The errnos the simulated drivers and kernels use.
const (
	EPERM   Errno = 1
	ENOENT  Errno = 2
	EINTR   Errno = 4
	EIO     Errno = 5
	EAGAIN  Errno = 11
	ENOMEM  Errno = 12
	EACCES  Errno = 13
	EFAULT  Errno = 14
	EBUSY   Errno = 16
	ENODEV  Errno = 19
	EINVAL  Errno = 22
	ENOTTY  Errno = 25
	ENOSPC  Errno = 28
	ENOSYS  Errno = 38
	ETIME   Errno = 62
	EREMOTE Errno = 66
	// ETIMEDOUT is surfaced by the CVD frontend when a forwarded operation
	// outlives its per-request deadline (driver-VM supervision): the issuer
	// unblocks instead of waiting forever on a backend that may be dead.
	ETIMEDOUT Errno = 110
)

var errnoNames = map[Errno]string{
	EPERM: "EPERM", ENOENT: "ENOENT", EINTR: "EINTR", EIO: "EIO",
	EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EBUSY: "EBUSY", ENODEV: "ENODEV", EINVAL: "EINVAL", ENOTTY: "ENOTTY",
	ENOSPC: "ENOSPC", ENOSYS: "ENOSYS", ETIME: "ETIME", EREMOTE: "EREMOTE",
	ETIMEDOUT: "ETIMEDOUT",
}

func (e Errno) Error() string {
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// ErrnoOf returns the errno a system call reports for err: 0 for nil, the
// Errno itself, and EIO for any other error.
func ErrnoOf(err error) Errno {
	if err == nil {
		return 0
	}
	if e, ok := err.(Errno); ok {
		return e
	}
	return EIO
}

// IsErrno reports whether err is the given errno.
func IsErrno(err error, want Errno) bool {
	e, ok := err.(Errno)
	return ok && e == want
}
