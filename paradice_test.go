package paradice_test

import (
	"testing"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/workload"
)

// guestKernel builds a Paradice machine with one Linux guest that has the
// given devices paravirtualized, returning the guest's kernel.
func guestKernel(t testing.TB, cfg paradice.Config, paths ...string) (*paradice.Machine, *kernel.Kernel) {
	t.Helper()
	m, err := paradice.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	g, err := m.AddGuest("guest1", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paths...); err != nil {
		t.Fatal(err)
	}
	return m, g.K
}

func TestNativeMatmulCorrect(t *testing.T) {
	m, err := paradice.NewNative(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.RunMatmul(m.Env, m.AppKernel(), 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("native GPU matmul produced a wrong product")
	}
	if res.Elapsed <= workload.CLSetupTime {
		t.Fatalf("elapsed = %v, must exceed setup time", res.Elapsed)
	}
}

func TestParadiceMatmulCorrect(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathGPU)
	res, err := workload.RunMatmul(m.Env, gk, 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("guest's matmul result wrong after crossing the CVD + hypervisor + GPU path")
	}
}

func TestParadiceMatmulWithDataIsolation(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{DataIsolation: true}, paradice.PathGPU)
	res, err := workload.RunMatmul(m.Env, gk, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("matmul wrong under device data isolation")
	}
	if m.GPU.Faults != 0 {
		t.Fatalf("GPU memory faults during legitimate run: %d", m.GPU.Faults)
	}
}

func TestDeviceAssignMatmulCorrect(t *testing.T) {
	m, err := paradice.NewDeviceAssignment(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.RunMatmul(m.Env, m.AppKernel(), 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("device-assignment matmul wrong")
	}
}

func TestNetmapTransmitsRealBytes(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathNetmap)
	res, err := workload.RunPktGen(m.Env, gk, 64, 5000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.NIC.TxPackets < 5000 {
		t.Fatalf("NIC transmitted %d packets, want >= 5000", m.NIC.TxPackets)
	}
	if m.NIC.Checksum == 0 {
		t.Fatal("NIC checksum zero: packet bytes never reached the device")
	}
	if m.NIC.DMAFaults != 0 {
		t.Fatalf("NIC DMA faults: %d", m.NIC.DMAFaults)
	}
	if res.MPPS <= 0 {
		t.Fatalf("MPPS = %f", res.MPPS)
	}
}

func TestNetmapRateOrdering(t *testing.T) {
	// Native >= Paradice(poll) >= Paradice(int) at a small batch size.
	rate := func(mk func() (*paradice.Machine, *kernel.Kernel)) float64 {
		m, k := mk()
		res, err := workload.RunPktGen(m.Env, k, 4, 20000, 64)
		if err != nil {
			t.Fatal(err)
		}
		return res.MPPS
	}
	native := rate(func() (*paradice.Machine, *kernel.Kernel) {
		m, err := paradice.NewNative(paradice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m, m.AppKernel()
	})
	polled := rate(func() (*paradice.Machine, *kernel.Kernel) {
		m, k := guestKernel(t, paradice.Config{Mode: paradice.Polling}, paradice.PathNetmap)
		return m, k
	})
	interrupts := rate(func() (*paradice.Machine, *kernel.Kernel) {
		m, k := guestKernel(t, paradice.Config{}, paradice.PathNetmap)
		return m, k
	})
	if !(native >= polled && polled > interrupts) {
		t.Fatalf("rate ordering violated: native=%.3f polled=%.3f interrupts=%.3f",
			native, polled, interrupts)
	}
	// Paper: polling at batch 4 is similar to native.
	if polled < 0.75*native {
		t.Fatalf("polled rate %.3f < 75%% of native %.3f at batch 4", polled, native)
	}
}

func TestMouseLatencyOrdering(t *testing.T) {
	measure := func(mk func() (*paradice.Machine, *kernel.Kernel)) sim.Duration {
		m, k := mk()
		res, err := workload.RunMouseLatency(m.Env, k, m.Mouse, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res.Avg
	}
	native := measure(func() (*paradice.Machine, *kernel.Kernel) {
		m, err := paradice.NewNative(paradice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m, m.AppKernel()
	})
	da := measure(func() (*paradice.Machine, *kernel.Kernel) {
		m, err := paradice.NewDeviceAssignment(paradice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m, m.AppKernel()
	})
	pInt := measure(func() (*paradice.Machine, *kernel.Kernel) {
		m, k := guestKernel(t, paradice.Config{}, paradice.PathMouse)
		return m, k
	})
	pPoll := measure(func() (*paradice.Machine, *kernel.Kernel) {
		m, k := guestKernel(t, paradice.Config{Mode: paradice.Polling}, paradice.PathMouse)
		return m, k
	})
	t.Logf("mouse latency: native=%v da=%v paradice-int=%v paradice-poll=%v",
		native, da, pInt, pPoll)
	if !(native < da && da < pPoll && pPoll < pInt) {
		t.Fatalf("latency ordering violated: native=%v da=%v poll=%v int=%v",
			native, da, pPoll, pInt)
	}
	// All well under the 1 ms human-perception threshold (§6.1.5).
	if pInt >= sim.Duration(sim.Millisecond) {
		t.Fatalf("paradice-int latency %v exceeds 1ms", pInt)
	}
}

func TestCameraFPSAcrossResolutions(t *testing.T) {
	for _, cfgName := range []string{"native", "paradice"} {
		var m *paradice.Machine
		var k *kernel.Kernel
		if cfgName == "native" {
			mm, err := paradice.NewNative(paradice.Config{})
			if err != nil {
				t.Fatal(err)
			}
			m, k = mm, mm.AppKernel()
		} else {
			m, k = guestKernel(t, paradice.Config{}, paradice.PathCamera)
		}
		res, err := workload.RunCamera(m.Env, k, workloadCamRes(), 30)
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		if !res.Verified {
			t.Fatalf("%s: frame pattern corrupted in transit", cfgName)
		}
		if res.FPS < 29 || res.FPS > 30 {
			t.Fatalf("%s: FPS = %.2f, want ~29.5", cfgName, res.FPS)
		}
	}
}

func workloadCamRes() (r struct{ W, H int }) { return struct{ W, H int }{1280, 720} }

func TestAudioPlaybackRealTime(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathAudio)
	res, err := workload.RunAudio(m.Env, gk, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Playback is paced by the codec: 0.5 s of audio takes ~0.5 s.
	if res.Elapsed < sim.Duration(480*sim.Millisecond) || res.Elapsed > sim.Duration(560*sim.Millisecond) {
		t.Fatalf("playback of 0.5s took %v", res.Elapsed)
	}
	if m.Audio.FramesPlayed < 23000 {
		t.Fatalf("codec played %d frames, want ~24000", m.Audio.FramesPlayed)
	}
}

func TestGLBenchOrdering(t *testing.T) {
	fps := func(mode paradice.Mode, kind string) float64 {
		var m *paradice.Machine
		var k *kernel.Kernel
		if kind == "native" {
			mm, err := paradice.NewNative(paradice.Config{})
			if err != nil {
				t.Fatal(err)
			}
			m, k = mm, mm.AppKernel()
		} else {
			m, k = guestKernel(t, paradice.Config{Mode: mode}, paradice.PathGPU)
		}
		res, err := workload.RunGL(m.Env, k, workload.GLVertexBufferObjects, 30)
		if err != nil {
			t.Fatal(err)
		}
		return res.FPS
	}
	native := fps(paradice.Interrupts, "native")
	pInt := fps(paradice.Interrupts, "paradice")
	pPoll := fps(paradice.Polling, "paradice")
	t.Logf("GL VBO fps: native=%.1f paradice-int=%.1f paradice-poll=%.1f", native, pInt, pPoll)
	if !(native > pPoll && pPoll > pInt) {
		t.Fatalf("FPS ordering violated: native=%.1f poll=%.1f int=%.1f", native, pPoll, pInt)
	}
	// Polling closes the gap (§6.1.3).
	if pPoll < 0.93*native {
		t.Fatalf("polled FPS %.1f below 93%% of native %.1f", pPoll, native)
	}
}

func TestFreeBSDGuestRendersOverLinuxDriverVM(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("bsd", paradice.FreeBSD)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		t.Fatal(err)
	}
	res, err := workload.RunMatmul(m.Env, g.K, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("FreeBSD guest's matmul wrong over Linux driver VM")
	}
}

func TestTwoGuestsShareGPU(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var kernels []*kernel.Kernel
	for _, name := range []string{"g1", "g2"} {
		g, err := m.AddGuest(name, paradice.Linux)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Paravirtualize(paradice.PathGPU); err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, g.K)
	}
	var results [2]workload.MatmulResult
	var errs [2]error
	for i, k := range kernels {
		workload.StartMatmul(k, 48, int64(i+10), &results[i], &errs[i])
	}
	m.Run()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("guest %d: %v", i, errs[i])
		}
		if !results[i].Correct {
			t.Fatalf("guest %d: wrong product under concurrent GPU sharing", i)
		}
	}
}
