package usrlib_test

// Tests for the §8 application-side recovery idiom: WithReopen must carry an
// application across a driver VM restart (stale fd → EINVAL → reopen →
// success), refuse to retry a degraded device (ENODEV is not transient), and
// give up once its attempt budget is spent.

import (
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
	"paradice/internal/usrlib"
)

func TestIsRestartErrClassification(t *testing.T) {
	for _, e := range []kernel.Errno{kernel.EREMOTE, kernel.ETIMEDOUT, kernel.EINVAL} {
		if !usrlib.IsRestartErr(e) {
			t.Errorf("%v should be restart-transient", e)
		}
	}
	for _, e := range []kernel.Errno{kernel.ENODEV, kernel.EIO, kernel.EACCES} {
		if usrlib.IsRestartErr(e) {
			t.Errorf("%v must not be restart-transient", e)
		}
	}
	if usrlib.IsRestartErr(nil) {
		t.Error("nil classified as restart-transient")
	}
}

func newGuestRig(t *testing.T) (*paradice.Machine, *paradice.Guest) {
	t.Helper()
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	return m, g
}

// gemCreate issues one GEM-create ioctl on fd — a minimal real operation
// that needs live per-fd driver state, so it distinguishes a fresh fd from a
// stale one.
func gemCreate(tk *kernel.Task, fd int) error {
	arg, err := tk.Proc.Alloc(16)
	if err != nil {
		return err
	}
	buf := make([]byte, 16)
	buf[1] = 0x10 // size = 4096
	if err := tk.Proc.Mem.Write(arg, buf); err != nil {
		return err
	}
	_, err = tk.Ioctl(fd, drm.IoctlGemCreate, arg)
	return err
}

func TestWithReopenSurvivesDriverVMRestart(t *testing.T) {
	m, g := newGuestRig(t)
	attempts := 0
	var opErr error
	p, err := g.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) {
		opErr = usrlib.WithReopen(tk, paradice.PathGPU, devfile.ORdWr, 3, func(fd int) error {
			attempts++
			if attempts == 1 {
				// The driver VM is restarted while this fd is open: the fd
				// goes stale, the op fails transiently, WithReopen reopens.
				if err := m.RestartDriverVM(); err != nil {
					t.Error(err)
				}
			}
			return gemCreate(tk, fd)
		})
	})
	m.Run()
	if opErr != nil {
		t.Fatalf("WithReopen did not survive the restart: %v", opErr)
	}
	if attempts != 2 {
		t.Fatalf("op ran %d times, want 2 (stale-fd failure + retry)", attempts)
	}
}

func TestWithReopenDoesNotRetryDegradedDevice(t *testing.T) {
	_, g := newGuestRig(t)
	g.Frontends[paradice.PathGPU].SetDegraded(true)
	attempts := 0
	var opErr error
	p, err := g.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) {
		opErr = usrlib.WithReopen(tk, paradice.PathGPU, devfile.ORdWr, 5, func(fd int) error {
			attempts++
			return nil
		})
	})
	g.M.Run()
	if !kernel.IsErrno(opErr, kernel.ENODEV) {
		t.Fatalf("err = %v, want ENODEV surfaced immediately", opErr)
	}
	if attempts != 0 {
		t.Fatalf("op ran %d times on a degraded device, want 0", attempts)
	}
}

func TestWithReopenExhaustsAttempts(t *testing.T) {
	_, g := newGuestRig(t)
	// The backend is dead and nobody restarts it: every open fast-fails
	// EREMOTE until the attempt budget runs out.
	g.Frontends[paradice.PathGPU].Backend().Kill()
	attempts := 0
	var opErr error
	p, err := g.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) {
		opErr = usrlib.WithReopen(tk, paradice.PathGPU, devfile.ORdWr, 3, func(fd int) error {
			attempts++
			return nil
		})
	})
	g.M.Run()
	if !kernel.IsErrno(opErr, kernel.EREMOTE) {
		t.Fatalf("err = %v, want the last transient EREMOTE", opErr)
	}
	if attempts != 0 {
		t.Fatalf("op ran %d times with a dead backend, want 0", attempts)
	}
}
