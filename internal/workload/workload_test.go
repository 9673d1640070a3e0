package workload_test

import (
	"strings"
	"testing"

	"paradice"
	"paradice/internal/sim"
	"paradice/internal/workload"
)

func nativeMachine(t testing.TB) *paradice.Machine {
	t.Helper()
	m, err := paradice.NewNative(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGameSpecScalesWithResolution(t *testing.T) {
	g := workload.GameTremulous
	lo := g.GL(workload.GameResolutions[0])
	hi := g.GL(workload.GameResolutions[3])
	if hi.DrawCycles <= lo.DrawCycles {
		t.Fatalf("cycles did not grow: %d -> %d", lo.DrawCycles, hi.DrawCycles)
	}
	if lo.Name != "Tremulous@800x600" {
		t.Fatalf("name = %s", lo.Name)
	}
}

func TestRunGLNativeFPSBands(t *testing.T) {
	m := nativeMachine(t)
	res, err := workload.RunGL(m.Env, m.AppKernel(), workload.GLVertexBufferObjects, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Native VBO teapot: high-100s FPS, like the paper's Figure 3 scale.
	if res.FPS < 150 || res.FPS > 250 {
		t.Fatalf("native VBO FPS = %.1f", res.FPS)
	}
	if res.Frames != 40 {
		t.Fatalf("frames = %d", res.Frames)
	}
}

func TestRunGLOrderingAcrossSpecs(t *testing.T) {
	fps := map[string]float64{}
	for _, spec := range []workload.GLSpec{
		workload.GLVertexBufferObjects, workload.GLVertexArrays, workload.GLDisplayLists,
	} {
		m := nativeMachine(t)
		res, err := workload.RunGL(m.Env, m.AppKernel(), spec, 25)
		if err != nil {
			t.Fatal(err)
		}
		fps[spec.Name] = res.FPS
	}
	if !(fps["VBO"] > fps["VA"] && fps["VA"] > fps["DL"]) {
		t.Fatalf("benchmark ordering wrong: %v", fps)
	}
}

func TestMatmulSeedsChangeData(t *testing.T) {
	m1 := nativeMachine(t)
	r1, err := workload.RunMatmul(m1.Env, m1.AppKernel(), 16, 1)
	if err != nil || !r1.Correct {
		t.Fatalf("seed 1: %+v %v", r1, err)
	}
	m2 := nativeMachine(t)
	r2, err := workload.RunMatmul(m2.Env, m2.AppKernel(), 16, 2)
	if err != nil || !r2.Correct {
		t.Fatalf("seed 2: %+v %v", r2, err)
	}
	// Deterministic per seed: repeat of seed 1 matches exactly.
	m3 := nativeMachine(t)
	r3, err := workload.RunMatmul(m3.Env, m3.AppKernel(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Elapsed != r1.Elapsed {
		t.Fatalf("nondeterministic: %v vs %v", r1.Elapsed, r3.Elapsed)
	}
}

func TestMatmulTimeDominatedBySetupAtTinyOrders(t *testing.T) {
	m := nativeMachine(t)
	res, err := workload.RunMatmul(m.Env, m.AppKernel(), 1, 5)
	if err != nil || !res.Correct {
		t.Fatalf("%+v %v", res, err)
	}
	// Figure 5's flat left side: the ~150ms host setup dominates order 1.
	if res.Elapsed < workload.CLSetupTime || res.Elapsed > workload.CLSetupTime+sim.Duration(50*sim.Millisecond) {
		t.Fatalf("order-1 time %v, want ~%v", res.Elapsed, workload.CLSetupTime)
	}
}

func TestPktGenClampsOversizeBatch(t *testing.T) {
	m := nativeMachine(t)
	res, err := workload.RunPktGen(m.Env, m.AppKernel(), 10_000, 3000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPPS <= 0 || res.MPPS > 1.5 {
		t.Fatalf("MPPS = %.3f with an oversize batch", res.MPPS)
	}
	if m.NIC.TxPackets < 3000 {
		t.Fatalf("tx = %d", m.NIC.TxPackets)
	}
}

func TestPktGenLargerPacketsLowerRate(t *testing.T) {
	rate := func(size int) float64 {
		m := nativeMachine(t)
		res, err := workload.RunPktGen(m.Env, m.AppKernel(), 64, 5000, size)
		if err != nil {
			t.Fatal(err)
		}
		return res.MPPS
	}
	small, big := rate(64), rate(1500)
	if big >= small {
		t.Fatalf("1500B rate %.3f >= 64B rate %.3f", big, small)
	}
	// 1500B wire time ≈ 12.2µs → ~0.082 Mpps.
	if big < 0.07 || big > 0.1 {
		t.Fatalf("1500B rate = %.3f Mpps, want ~0.082", big)
	}
}

func TestCameraWorkloadDetectsCorruption(t *testing.T) {
	m := nativeMachine(t)
	res, err := workload.RunCamera(m.Env, m.AppKernel(), struct{ W, H int }{1600, 896}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.FPS < 29 {
		t.Fatalf("camera: %+v", res)
	}
}

func TestAudioScalesWithClipLength(t *testing.T) {
	short := runAudio(t, 0.2)
	long := runAudio(t, 0.4)
	ratio := float64(long) / float64(short)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("doubling the clip changed time by %.2fx", ratio)
	}
}

func runAudio(t testing.TB, secs float64) sim.Duration {
	t.Helper()
	m := nativeMachine(t)
	res, err := workload.RunAudio(m.Env, m.AppKernel(), secs)
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed
}

func TestMouseWorkloadCountsAllSamples(t *testing.T) {
	m := nativeMachine(t)
	res, err := workload.RunMouseLatency(m.Env, m.AppKernel(), m.Mouse, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 25 || res.Avg <= 0 {
		t.Fatalf("%+v", res)
	}
}

// A reader that never gets its samples must fail the run, not report a
// zero latency: here it waits on the mouse while the events go to the
// keyboard, so its task is still blocked when the calendar drains.
func TestMouseWorkloadFailsWhenReaderNeverFinishes(t *testing.T) {
	m := nativeMachine(t)
	defer m.Close()
	res, err := workload.RunMouseLatency(m.Env, m.AppKernel(), m.Keyboard, 5)
	if err == nil || !strings.Contains(err.Error(), "xserver/eventloop did not finish") {
		t.Fatalf("mis-wired run: avg=%v err=%v, want the eventloop task reported unfinished", res.Avg, err)
	}
}
