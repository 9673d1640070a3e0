package paradice_test

import (
	"runtime"
	"testing"

	"paradice"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
)

// TestForwardedIoctlAllocs caps the host allocations one forwarded no-op
// ioctl costs in steady state: the guest syscall, the CVD round trip, the
// hypervisor's copies and the driver, plus every simulator event in between.
// It counts heap allocations across 5000 warm ops from inside the process
// body, where nothing else runs, once with the driver VM's handler set
// uncapped (a thread per op in flight) and once capped.
func TestForwardedIoctlAllocs(t *testing.T) {
	// Each cap sits half an allocation above its reading of 1.0, and the
	// runtime's own background allocations add a few ten-thousandths per op.
	// The one allocation left is the DRM driver's 32-byte info reply, which
	// escapes through RemoteOps.CopyToUser.
	for _, c := range []struct {
		name     string
		cfg      paradice.Config
		maxPerOp float64
	}{
		{"thread-per-op", paradice.Config{}, 1.5},
		{"pooled", paradice.Config{Workers: 2}, 1.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			if perOp := forwardedIoctlAllocs(t, c.cfg); perOp > c.maxPerOp {
				t.Fatalf("%.1f allocations per forwarded ioctl, want at most %.1f", perOp, c.maxPerOp)
			}
		})
	}
}

func forwardedIoctlAllocs(t *testing.T, cfg paradice.Config) float64 {
	const ops = 5000
	var before, after runtime.MemStats
	forwardedIoctls(t, cfg, ops, func() { runtime.ReadMemStats(&before) }, func() { runtime.ReadMemStats(&after) })
	perOp := float64(after.Mallocs-before.Mallocs) / ops
	t.Logf("%.1f allocations per forwarded ioctl", perOp)
	return perOp
}

// BenchmarkForwardedIoctl times the steady-state forwarded no-op ioctl
// TestForwardedIoctlAllocs counts the allocations of: host time and
// allocations per op, the machine build and 200 warm-up ops excluded.
func BenchmarkForwardedIoctl(b *testing.B) {
	b.ReportAllocs()
	forwardedIoctls(b, paradice.Config{}, b.N, b.ResetTimer, b.StopTimer)
}

// forwardedIoctls builds a machine with the GPU paravirtualized and has one
// guest task issue 200 warm-up DRM info ioctls, then ops more between start
// and stop. Both run inside the task's process body, where nothing else
// runs.
func forwardedIoctls(t testing.TB, cfg paradice.Config, ops int, start, stop func()) {
	const warm = 200
	m, gk := guestKernel(t, cfg, paradice.PathGPU)
	p, err := gk.NewProcess("allocs")
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	p.SpawnTask("loop", func(tk *kernel.Task) {
		fd, err := tk.Open(paradice.PathGPU, 2)
		if err != nil {
			opErr = err
			return
		}
		arg, err := p.Alloc(32)
		if err != nil {
			opErr = err
			return
		}
		for i := 0; i < warm+ops; i++ {
			if i == warm {
				start()
			}
			if _, err := tk.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
				opErr = err
				return
			}
		}
		stop()
	})
	m.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
}

// TestMachineBuildAllocs caps the host bytes one machine build allocates: a
// default machine, one guest with the GPU paravirtualized, then Close. A
// build touches only what it uses, so fresh guest frames stay unbacked and
// the DRM ioctl analysis is shared, not redone.
func TestMachineBuildAllocs(t *testing.T) {
	const builds = 20
	buildMachine(t) // the process-wide DRM analysis runs here, once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		buildMachine(t)
	}
	runtime.ReadMemStats(&after)
	perBuild := float64(after.TotalAlloc-before.TotalAlloc) / builds / 1024
	t.Logf("%.0f KiB allocated per machine build", perBuild)
	// The cap sits just above the reading of 44 KiB. Writing zeros into
	// every fresh frame adds over 1 MiB a build; analyzing the DRM ioctls
	// per build, or naming every event, adds 7 KiB or more each.
	const maxKiB = 48
	if perBuild > maxKiB {
		t.Fatalf("%.0f KiB allocated per machine build, want at most %d", perBuild, maxKiB)
	}
}

// BenchmarkMachineBuild times the build TestMachineBuildAllocs measures.
func BenchmarkMachineBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildMachine(b)
	}
}

func buildMachine(t testing.TB) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
}
