package paradice_test

// Machine-level isolation tests: the threat model of §4 exercised on the
// fully assembled system. The driver VM is assumed compromised (the paper's
// stance after fault isolation), and each §4.2 attack against another
// guest's device data must fail while legitimate use keeps working.

import (
	"testing"

	"paradice"
	"paradice/internal/device/gpu"
	"paradice/internal/grant"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
	"paradice/internal/workload"
)

// diMachine builds a data-isolation machine with a victim and an attacker
// guest sharing the GPU.
func diMachine(t *testing.T) (*paradice.Machine, *paradice.Guest, *paradice.Guest) {
	t.Helper()
	m, err := paradice.New(paradice.Config{DataIsolation: true})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.AddGuest("victim", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	attacker, err := m.AddGuest("attacker", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := attacker.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	return m, victim, attacker
}

// writeSecret has the victim create a texture BO, map it, and write a
// secret through the mapped pages (the paper's "graphics textures and GPGPU
// input data" moved via mmap). Returns the BO's VRAM offset (0: first
// allocation in the victim's partition).
func writeSecret(t *testing.T, m *paradice.Machine, victim *paradice.Guest, secret []byte) {
	t.Helper()
	p, err := victim.NewProcess("victim-app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("main", func(tk *kernel.Task) {
		g, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			t.Error(err)
			return
		}
		bo, err := g.CreateBO(mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		va, err := g.MapBO(bo, mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.UserWrite(tk, va, secret); err != nil {
			t.Error(err)
		}
		// Render with it once so the victim's region is the active one.
		fb, err := g.CreateBO(mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := g.Draw(fb, bo, 1000); err != nil {
			t.Error(err)
		}
	})
	m.Run()
}

// Attack two of §4.2: the compromised driver VM's CPU reads the victim's
// protected VRAM page directly.
func TestDriverVMCannotReadProtectedTexture(t *testing.T) {
	m, victim, _ := diMachine(t)
	secret := []byte("victim texture bytes")
	writeSecret(t, m, victim, secret)
	// The victim's partition starts at VRAM offset 0; its first BO is the
	// texture. A compromised driver VM reads the page through its own
	// guest-physical view of the BAR:
	pageGPA := m.DRM.VRAMGPA() // + 0
	buf := make([]byte, len(secret))
	if err := m.DriverVM.Space.Read(pageGPA, buf); err == nil {
		t.Fatalf("compromised driver VM read the victim's texture: %q", buf)
	}
	// Sanity: the secret really is there, visible to the hypervisor.
	spa, err := m.DriverVM.EPT.Translate(pageGPA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.HV.Phys.Read(spa, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(secret) {
		t.Fatalf("secret not where expected: %q", buf)
	}
}

// Attack three of §4.2: the compromised driver VM programs the device to
// copy the victim's buffer into the attacker's region. The GPU's MC window
// points at the attacker's partition, so the read does not succeed.
func TestDeviceCannotCopyAcrossRegions(t *testing.T) {
	m, victim, attacker := diMachine(t)
	secret := []byte("cross-region loot")
	writeSecret(t, m, victim, secret)

	// The attacker renders once so its region (and MC window) is active.
	attackerApp, err := attacker.NewProcess("attacker-app")
	if err != nil {
		t.Fatal(err)
	}
	var attackerBO uint64
	attackerApp.SpawnTask("main", func(tk *kernel.Task) {
		g, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			t.Error(err)
			return
		}
		fb, err := g.CreateBO(mem.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		if err := g.Draw(fb, 0, 1000); err != nil {
			t.Error(err)
		}
		// The attacker's partition is the upper half of VRAM.
		attackerBO = m.GPU.VRAMSize() / 2
	})
	m.Run()

	// Compromised driver VM: enqueue a raw engine command copying the
	// victim's VRAM (offset 0) into the attacker's partition.
	faultsBefore := m.GPU.Faults
	m.GPU.Submit([]gpu.EngineCmd{gpu.Cmd(gpu.OpCopy, 0, attackerBO, uint64(len(secret)))}, 9999)
	m.RunUntil(m.Env.Now().Add(10 * sim.Millisecond))
	if m.GPU.Faults == faultsBefore {
		t.Fatal("cross-region device copy did not fault at the MC window")
	}
	// The attacker page still does not contain the secret.
	attackerGPA := m.DRM.VRAMGPA() + mem.GuestPhys(attackerBO)
	spa, err := m.DriverVM.EPT.Translate(attackerGPA, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(secret))
	if err := m.HV.Phys.Read(spa, buf); err == nil && string(buf) == string(secret) {
		t.Fatal("secret leaked into the attacker's partition")
	}
}

// Attack one of §4.2 at machine level: the compromised driver VM asks the
// hypervisor to map the victim's protected page into the attacker guest.
func TestHypervisorRefusesCrossGuestMapOnMachine(t *testing.T) {
	m, victim, attacker := diMachine(t)
	writeSecret(t, m, victim, []byte("no trespassing"))
	// Forge a perfectly valid grant on the attacker's side.
	p, err := attacker.NewProcess("attacker-app")
	if err != nil {
		t.Fatal(err)
	}
	va := mem.GuestVirt(0x5000_0000)
	if err := p.PT.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	ref, err := attacker.Grants.Declare(p.PT.Root(), []grant.Op{
		{Kind: grant.KindMapPage, VA: va, Len: mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = m.HV.MapToGuest(attacker.VM, ref, va, m.DriverVM, m.DRM.VRAMGPA())
	if err == nil {
		t.Fatal("hypervisor mapped the victim's protected page into the attacker")
	}
}

// The device data isolation configuration costs the VSync interrupt (§5.3:
// all interrupts are interpreted as fences).
func TestDataIsolationDisablesVSync(t *testing.T) {
	m, _, _ := diMachine(t)
	if !m.DRM.DataIsolationEnabled() {
		t.Fatal("DI not enabled")
	}
	if got := m.DRM.VSyncs; got != 0 {
		t.Fatalf("VSync interrupts seen under DI: %d", got)
	}
}

// §8: Paradice does not provide performance isolation — a guest flooding
// the GPU slows another guest's work. This test documents the limitation.
func TestNoPerformanceIsolation(t *testing.T) {
	baseline := matmulWithFlood(t, false)
	contended := matmulWithFlood(t, true)
	if contended < sim.Duration(float64(baseline)*1.3) {
		t.Fatalf("expected the flooded GPU to slow the victim: baseline=%v contended=%v",
			baseline, contended)
	}
}

func matmulWithFlood(t *testing.T, flood bool) sim.Duration {
	t.Helper()
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.AddGuest("victim", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	if flood {
		hog, err := m.AddGuest("hog", paradice.Linux)
		if err != nil {
			t.Fatal(err)
		}
		if err := hog.Paravirtualize(paradice.PathGPU); err != nil {
			t.Fatal(err)
		}
		p, err := hog.NewProcess("hog-app")
		if err != nil {
			t.Fatal(err)
		}
		p.SpawnTask("flood", func(tk *kernel.Task) {
			g, err := usrlib.OpenGPU(tk, paradice.PathGPU)
			if err != nil {
				return
			}
			fb, err := g.CreateBO(mem.PageSize)
			if err != nil {
				return
			}
			// Queue deep batches of expensive draws without waiting on
			// fences, keeping the command processor saturated.
			var words []uint32
			for i := 0; i < 50; i++ {
				words = append(words, gpu.OpDraw, fb, 0, 2_000_000, 0)
			}
			for i := 0; i < 10; i++ {
				if _, err := g.SubmitIB(words); err != nil {
					return
				}
			}
		})
	}
	resS := []workload.MatmulResult{{}}
	task, err := workload.StartMatmulLoop(victim.K, 64, resS)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if err := task.Err(); err != nil {
		t.Fatal(err)
	}
	if !resS[0].Correct {
		t.Fatal("victim matmul wrong under contention")
	}
	return resS[0].Elapsed
}
