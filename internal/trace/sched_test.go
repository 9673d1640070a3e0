package trace_test

import (
	"testing"

	"paradice"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
)

// Scheduler instants obey event retention: with retention off and scheduler
// events on, a guest issuing 100 forwarded no-op ioctls leaves the tracer
// holding no events, while the sched.* counters still count every decision.
func TestSchedEventsObeyRetention(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	g, err := m.AddGuest("guest1", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	tr := m.StartTrace()
	t.Cleanup(func() { m.StopTrace() })
	tr.SetEventRetention(false)
	tr.EnableSched(m.Env)
	p, err := g.K.NewProcess("noop")
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunTask("loop", func(tk *kernel.Task) error {
		fd, err := tk.Open(paradice.PathGPU, 2)
		if err != nil {
			return err
		}
		arg, err := p.Alloc(32)
		if err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			if _, err := tk.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("retention off kept %d events", n)
	}
	mt := tr.Metrics()
	if mt.Counter("sched.callbacks") == 0 || mt.Counter("sched.resumes") == 0 {
		t.Fatalf("sched counters idle: callbacks %d resumes %d",
			mt.Counter("sched.callbacks"), mt.Counter("sched.resumes"))
	}
}
