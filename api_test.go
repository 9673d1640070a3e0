package paradice_test

import (
	"testing"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
)

func TestAddGuestOnlyOnParadice(t *testing.T) {
	m, err := paradice.NewNative(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddGuest("g", paradice.Linux); err == nil {
		t.Fatal("AddGuest succeeded on a native machine")
	}
}

func TestParavirtualizeTwiceFails(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("g", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err == nil {
		t.Fatal("double paravirtualize succeeded")
	}
}

func TestParavirtualizeUnknownPath(t *testing.T) {
	m, _ := paradice.New(paradice.Config{})
	g, _ := m.AddGuest("g", paradice.Linux)
	if err := g.Paravirtualize("/dev/flux-capacitor"); err == nil {
		t.Fatal("unknown device path accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for kind, want := range map[paradice.Kind]string{
		paradice.KindParadice:     "paradice",
		paradice.KindNative:       "native",
		paradice.KindDeviceAssign: "device-assign",
	} {
		if kind.String() != want {
			t.Fatalf("%d = %s", kind, kind.String())
		}
	}
}

func TestDIGuestsBeyondPartitionsRejected(t *testing.T) {
	m, err := paradice.New(paradice.Config{DataIsolation: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		g, err := m.AddGuest("g", paradice.Linux)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Paravirtualize(paradice.PathGPU); err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
	}
	g3, err := m.AddGuest("g3", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Paravirtualize(paradice.PathGPU); err == nil {
		t.Fatal("third DI guest got a partition from a 2-way split")
	}
}

// mmap/munmap cycles must not leak guest EPT entries — every
// hypervisor-installed mapping is destroyed on unmap (§5.2).
func TestNoEPTLeakAcrossMmapCycles(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathGPU)
	g := m.Guests()[0]
	p, err := gk.NewProcess("cycler")
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	p.SpawnTask("main", func(tk *kernel.Task) {
		ctx, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			t.Error(err)
			return
		}
		bo, err := ctx.CreateBO(4 * mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 8; i++ {
			va, err := ctx.MapBO(bo, 4*mem.PageSize)
			if err != nil {
				t.Error(err)
				return
			}
			// Touch all four pages so they are hypervisor-mapped.
			buf := make([]byte, 4*mem.PageSize)
			if err := p.UserWrite(tk, va, buf); err != nil {
				t.Error(err)
				return
			}
			if err := ctx.UnmapBO(va, 4*mem.PageSize); err != nil {
				t.Error(err)
				return
			}
			counts = append(counts, g.VM.EPT.Count())
		}
	})
	m.Run()
	if len(counts) != 8 {
		t.Fatalf("cycles = %d", len(counts))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("EPT entries leaked across cycles: %v", counts)
		}
	}
}

// The grant table must also come back to empty after mmap cycles (no grant
// slot leaks, which would eventually starve the guest).
func TestGrantSlotsRecycledAcrossMmaps(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathGPU)
	p, err := gk.NewProcess("cycler")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) {
		ctx, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			t.Error(err)
			return
		}
		bo, err := ctx.CreateBO(mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		// Far more map/unmap cycles than the table has slots.
		for i := 0; i < 300; i++ {
			va, err := ctx.MapBO(bo, mem.PageSize)
			if err != nil {
				t.Errorf("cycle %d: %v", i, err)
				return
			}
			if err := ctx.UnmapBO(va, mem.PageSize); err != nil {
				t.Errorf("cycle %d: %v", i, err)
				return
			}
		}
	})
	m.Run()
}

func TestMachineRunUntil(t *testing.T) {
	m, _ := paradice.NewNative(paradice.Config{})
	m.RunUntil(1000)
	if m.Env.Now() != 1000 {
		t.Fatalf("now = %v", m.Env.Now())
	}
}

// The netmap receive path through a Paradice guest: frames injected at the
// wire land in driver VM buffers mapped into the guest and are read there.
func TestNetmapReceiveThroughGuest(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathNetmap)
	p, err := gk.NewProcess("rx-app")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	p.SpawnTask("rx", func(tk *kernel.Task) {
		nm, err := usrlib.OpenNetmap(tk, paradice.PathNetmap)
		if err != nil {
			t.Error(err)
			return
		}
		for len(frames) < 3 {
			got, err := nm.RecvBatch()
			if err != nil {
				t.Error(err)
				return
			}
			frames = append(frames, got...)
		}
	})
	for i := 0; i < 3; i++ {
		i := i
		m.Env.At(m.Env.Now().Add(sim.Duration(i+1)*sim.Millisecond), func() {
			frame := make([]byte, 64)
			for j := range frame {
				frame[j] = byte(i + j)
			}
			m.NIC.InjectRx(frame)
		})
	}
	m.Run()
	if len(frames) != 3 {
		t.Fatalf("guest received %d frames", len(frames))
	}
	for i, f := range frames {
		for j, b := range f {
			if b != byte(i+j) {
				t.Fatalf("frame %d corrupted at %d", i, j)
			}
		}
	}
}
