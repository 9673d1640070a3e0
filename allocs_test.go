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
// body, where nothing else runs.
func TestForwardedIoctlAllocs(t *testing.T) {
	// The cap sits half an allocation above the 12.0 reading: the runtime's
	// own background allocations add a few ten-thousandths per op.
	const warm, ops, maxPerOp = 200, 5000, 12.5
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathGPU)
	p, err := gk.NewProcess("allocs")
	if err != nil {
		t.Fatal(err)
	}
	var perOp float64
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
		var before, after runtime.MemStats
		for i := 0; i < warm+ops; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			if _, err := tk.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
				opErr = err
				return
			}
		}
		runtime.ReadMemStats(&after)
		perOp = float64(after.Mallocs-before.Mallocs) / ops
	})
	m.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
	t.Logf("%.1f allocations per forwarded ioctl", perOp)
	if perOp > maxPerOp {
		t.Fatalf("%.1f allocations per forwarded ioctl, want at most %.1f", perOp, maxPerOp)
	}
}
