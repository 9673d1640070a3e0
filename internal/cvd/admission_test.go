package cvd

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// QoS admission control: a class with an occupancy limit is refused with
// EAGAIN once the ring holds that many in-flight requests, while unlimited
// classes keep the full 100-slot cap. The limited class never claims a
// slot, so shedding it costs no ring space.
func TestAdmissionShedsLimitedClass(t *testing.T) {
	const limit = 10
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.Admission = map[uint8]int{2: limit}
	})
	r.traced()
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent()
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.ORdOnly)
		opened.Trigger()
	})
	// Occupy exactly `limit` slots with blocking reads (nothing is written,
	// so they park on the driver's wait queue and hold their slots).
	for i := 0; i < limit; i++ {
		app.SpawnTask("holder", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			dst, _ := app.Alloc(8)
			tk.Read(fd, dst, 8)
		})
	}
	var lowErr, highErr error
	var occAtProbe int
	app.SpawnTask("probe", func(tk *kernel.Task) {
		tk.Sim().Wait(opened)
		tk.Sim().Sleep(5 * sim.Millisecond) // let the holders post
		occAtProbe = r.fe.Occupancy()
		tk.QoS = 2
		_, lowErr = tk.Ioctl(fd, tdNoop, 0)
		tk.QoS = 0
		_, highErr = tk.Ioctl(fd, tdNoop, 0)
	})
	r.env.RunUntil(sim.Time(50 * sim.Millisecond))
	if occAtProbe < limit {
		t.Fatalf("occupancy at probe = %d, want >= %d", occAtProbe, limit)
	}
	if !kernel.IsErrno(lowErr, kernel.EAGAIN) {
		t.Fatalf("limited class got %v, want EAGAIN", lowErr)
	}
	if highErr != nil {
		t.Fatalf("unlimited class got %v, want success past the limit", highErr)
	}
	if n := r.count(t, r.fe.m.throttled); n != 1 {
		t.Fatalf("%s = %d, want 1", r.fe.m.throttled, n)
	}
	if r.fe.Rejected != 0 {
		t.Fatalf("Rejected = %d, want 0 (admission must shed before slot claim)", r.fe.Rejected)
	}
}

// SetAdmission(nil) disables admission control: the previously limited
// class is admitted again.
func TestAdmissionDisable(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.Admission = map[uint8]int{2: 0} // limit 0: shed even on an empty ring
	})
	var first, second error
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		tk.QoS = 2
		_, first = tk.Ioctl(fd, tdNoop, 0)
		r.fe.SetAdmission(nil)
		_, second = tk.Ioctl(fd, tdNoop, 0)
	})
	if !kernel.IsErrno(first, kernel.EAGAIN) {
		t.Fatalf("limited class got %v, want EAGAIN", first)
	}
	if second != nil {
		t.Fatalf("after disable got %v, want success", second)
	}
}
