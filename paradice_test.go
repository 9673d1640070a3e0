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
	var tasks [2]*kernel.Task
	for i, k := range kernels {
		if tasks[i], err = workload.StartMatmul(k, 48, int64(i+10), &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	for i := range results {
		if err := tasks[i].Err(); err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
		if !results[i].Correct {
			t.Fatalf("guest %d: wrong product under concurrent GPU sharing", i)
		}
	}
}
