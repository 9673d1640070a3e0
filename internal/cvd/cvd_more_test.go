package cvd

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// The polling window: a backend that just finished an operation spins for
// 200 µs; operations arriving inside the window take the fast path,
// operations arriving after it pay the interrupt.
func TestPollingWindowExpiry(t *testing.T) {
	r := newRig(t, Polling, kernel.Linux)
	p, _ := r.guestK.NewProcess("app")
	var hotRT, coldRT sim.Duration
	p.SpawnTask("main", func(tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		// Warm up.
		if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
			t.Error(err)
			return
		}
		// Hot: immediately after the previous op, inside the window.
		start := tk.Sim().Now()
		_, _ = tk.Ioctl(fd, tdNoop, 0)
		hotRT = tk.Sim().Now().Sub(start)
		// Cold: sleep past the 200 µs window first.
		tk.Sim().Sleep(300 * sim.Microsecond)
		start = tk.Sim().Now()
		_, _ = tk.Ioctl(fd, tdNoop, 0)
		coldRT = tk.Sim().Now().Sub(start)
	})
	r.env.Run()
	if hotRT > 5*sim.Microsecond {
		t.Fatalf("hot polled round trip = %v, want a few µs", hotRT)
	}
	if coldRT < 15*sim.Microsecond {
		t.Fatalf("cold round trip = %v; should pay the interrupt after the window", coldRT)
	}
}

// The notification gate (§5.1's foreground model): gated-off backends drop
// notifications instead of delivering them.
func TestNotifyGateDropsNotifications(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	allowed := true
	r.be.SetNotifyGate(func() bool { return allowed })
	app, _ := r.guestK.NewProcess("app")
	sigios := 0
	app.OnSIGIO(func() { sigios++ })
	app.SpawnTask("main", func(tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdOnly)
		_ = tk.SetFasync(fd, true)
	})
	write := func(delay sim.Duration) {
		w, _ := r.driverK.NewProcess("writer")
		w.SpawnTask("w", func(tk *kernel.Task) {
			tk.Sim().Sleep(delay)
			fd, _ := tk.Open("/dev/testdev", devfile.OWrOnly)
			src, _ := w.AllocBytes([]byte("x"))
			_, _ = tk.Write(fd, src, 1)
		})
	}
	write(100 * sim.Microsecond) // delivered
	r.env.At(sim.Time(200*sim.Microsecond), func() { allowed = false })
	write(300 * sim.Microsecond) // dropped
	r.env.Run()
	if sigios != 1 {
		t.Fatalf("SIGIOs = %d, want 1 (second gated off)", sigios)
	}
	if r.be.NotifsDropped != 1 {
		t.Fatalf("dropped = %d, want 1", r.be.NotifsDropped)
	}
}

// Concurrent operations from several guest processes on one channel: each
// gets its own slot and its own response.
func TestConcurrentOpsDistinctResponses(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent()
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.ORdWr)
		// Preload data so reads return distinct prefixes.
		src, _ := app.AllocBytes([]byte("abcdefgh"))
		_, _ = tk.Write(fd, src, 8)
		opened.Trigger()
	})
	got := make([]byte, 4)
	for i := 0; i < 4; i++ {
		i := i
		app.SpawnTask("reader", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			dst, _ := app.Alloc(1)
			n, err := tk.Read(fd, dst, 1)
			if err != nil || n != 1 {
				t.Errorf("reader %d: n=%d err=%v", i, n, err)
				return
			}
			b := make([]byte, 1)
			_ = app.Mem.Read(dst, b)
			got[i] = b[0]
		})
	}
	r.env.Run()
	seen := map[byte]bool{}
	for i, b := range got {
		if b == 0 {
			t.Fatalf("reader %d got nothing", i)
		}
		if seen[b] {
			t.Fatalf("byte %q delivered twice: responses crossed", b)
		}
		seen[b] = true
	}
}

// Backend statistics reflect the transport's behavior.
func TestBackendStats(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		for i := 0; i < 5; i++ {
			_, _ = tk.Ioctl(fd, tdNoop, 0)
		}
	})
	if r.be.OpsHandled < 6 { // open + 5 noops
		t.Fatalf("ops handled = %d", r.be.OpsHandled)
	}
	if r.be.WakeIRQs == 0 {
		t.Fatal("interrupt mode never woke the dispatcher by IRQ")
	}
}

// A Paradice mmap under the FreeBSD guest without the kernel patch fails
// exactly as §5.1 predicts, and works with it.
func TestFreeBSDPatchGatesMmapThroughCVD(t *testing.T) {
	r := newRig(t, Interrupts, kernel.FreeBSD)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		r.guestK.SetFreeBSDMmapPatch(false)
		if _, err := tk.Mmap(fd, 4096, 0); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Fatalf("unpatched guest mmap: %v", err)
		}
		r.guestK.SetFreeBSDMmapPatch(true)
		if _, err := tk.Mmap(fd, 4096, 0); err != nil {
			t.Fatalf("patched guest mmap: %v", err)
		}
	})
}

// Negative durations and sizes have no meaning. Connect refuses them before
// building anything, so no reader of the settings has to guess at one.
func TestConnectRejectsNegativeSettings(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"PollWindow", func(c *Config) { c.PollWindow = -1 }},
		{"CoalesceWindow", func(c *Config) { c.CoalesceWindow = -sim.Microsecond }},
		{"RequestDeadline", func(c *Config) { c.RequestDeadline = -sim.Millisecond }},
	}
	for _, c := range cases {
		cfg := Config{
			HV: r.h, GuestVM: r.guestVM, GuestK: r.guestK,
			DriverVM: r.driverVM, DriverK: r.driverK,
			DevicePath: "/dev/testdev", Mode: Polling,
		}
		c.set(&cfg)
		if _, _, err := Connect(cfg); err == nil {
			t.Errorf("Connect with a negative %s succeeded, want an error", c.name)
		}
	}
}
