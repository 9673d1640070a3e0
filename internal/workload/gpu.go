package workload

import (
	"fmt"
	"math/rand"

	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
)

// GLResult is one rendering benchmark's outcome.
type GLResult struct {
	Spec   GLSpec
	Frames int
	FPS    float64
}

// RunGL renders the workload for the given number of frames on the kernel's
// device file and reports the average FPS (VSync disabled, as in §6.1.3).
func RunGL(env *sim.Env, k *kernel.Kernel, spec GLSpec, frames int) (GLResult, error) {
	res := GLResult{Spec: spec, Frames: frames}
	p, err := k.NewProcess("gl-" + spec.Name)
	if err != nil {
		return res, err
	}
	task := p.Go("render", func(t *kernel.Task) error {
		g, err := usrlib.OpenGPU(t, "/dev/dri/card0")
		if err != nil {
			return err
		}
		defer g.Close()
		fb, err := g.CreateBO(1 << 20) // framebuffer
		if err != nil {
			return err
		}
		tex, err := g.CreateBO(1 << 20) // texture/vertex staging
		if err != nil {
			return err
		}
		var texVA mem.GuestVirt
		if spec.UploadBytes > 0 {
			if texVA, err = g.MapBO(tex, 1<<20); err != nil {
				return err
			}
		}
		upload := make([]byte, spec.UploadBytes)
		start := t.Sim().Now()
		for f := 0; f < frames; f++ {
			t.Compute("cpu-prep", sim.Duration(spec.CPUPrep))
			if spec.UploadBytes > 0 {
				// Stream geometry/textures through the mapped BO; charge
				// the application-side memcpy.
				for i := range upload {
					upload[i] = byte(f + i)
				}
				if err := p.UserWrite(t, texVA, upload); err != nil {
					return err
				}
				t.Compute("upload", perf.Copy(spec.UploadBytes, spec.UploadBytes/mem.PageSize+1))
			}
			// The auxiliary per-frame ioctls: state changes, BO bookkeeping.
			for i := 0; i < spec.Ioctls; i++ {
				if _, _, _, err := g.Info(); err != nil {
					return err
				}
			}
			if err := g.Draw(fb, tex, spec.DrawCycles); err != nil {
				return err
			}
		}
		elapsed := t.Sim().Now().Sub(start)
		res.FPS = float64(frames) / elapsed.Seconds()
		return nil
	})
	env.Run()
	return res, task.Err()
}

// MatmulResult is one OpenCL benchmark run.
type MatmulResult struct {
	Order   int
	Elapsed sim.Duration
	Correct bool
}

// CLSetupTime is the host-side OpenCL setup the paper's "experiment time"
// includes (context creation, kernel compilation) — the floor visible at
// small matrix orders in Figure 5.
const CLSetupTime = 150 * sim.Millisecond

// RunMatmul executes the Figure 5 benchmark: multiply two random order-n
// matrices on the GPU, measuring from host setup until the result matrix is
// back and its buffers are unmapped, and verify the product against a CPU
// reference.
func RunMatmul(env *sim.Env, k *kernel.Kernel, order int, seed int64) (MatmulResult, error) {
	res := MatmulResult{Order: order}
	task, err := StartMatmul(k, order, seed, &res)
	if err != nil {
		return res, err
	}
	env.Run()
	return res, task.Err()
}

// StartMatmul spawns the benchmark without driving the simulation, so
// several guests can run it concurrently. The result lands in res once the
// simulation is driven to completion; the returned task's Err reports how
// the run ended.
func StartMatmul(k *kernel.Kernel, order int, seed int64, res *MatmulResult) (*kernel.Task, error) {
	p, err := k.NewProcess(fmt.Sprintf("opencl-%d", order))
	if err != nil {
		return nil, err
	}
	return p.Go("host", func(t *kernel.Task) (err error) {
		*res, err = matmul(t, order, seed)
		return err
	}), nil
}

// StartMatmulLoop spawns one guest application that runs the benchmark
// len(res) times back to back (the §6.1.4 concurrency experiment executes
// it "5 times in a row from each guest VM simultaneously"). Results land in
// res once the simulation is driven to completion; the returned task's Err
// reports the first failed run.
func StartMatmulLoop(k *kernel.Kernel, order int, res []MatmulResult) (*kernel.Task, error) {
	p, err := k.NewProcess("opencl-loop")
	if err != nil {
		return nil, err
	}
	return p.Go("host", func(t *kernel.Task) (err error) {
		for r := range res {
			if res[r], err = matmul(t, order, int64(r+1)*7919); err != nil {
				return fmt.Errorf("run %d: %w", r, err)
			}
		}
		return nil
	}), nil
}

// matmul is the benchmark body executed by an already-running task. Its
// experiment time runs from host setup until the result is read back and the
// three buffer objects are unmapped again, so back-to-back runs (Figure 6)
// and single runs (Figure 5) time the same work.
func matmul(t *kernel.Task, order int, seed int64) (MatmulResult, error) {
	res := MatmulResult{Order: order}
	rng := rand.New(rand.NewSource(seed))
	n := order
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	start := t.Sim().Now()
	t.Compute("cl-setup", CLSetupTime)
	g, err := usrlib.OpenGPU(t, "/dev/dri/card0")
	if err != nil {
		return res, err
	}
	defer g.Close()
	bytes := uint64(n) * uint64(n) * 4
	mapLen := (bytes + mem.PageSize - 1) &^ (mem.PageSize - 1)
	var handles [3]uint32
	var vas [3]mem.GuestVirt
	for i := range handles {
		if handles[i], err = g.CreateBO(bytes); err != nil {
			return res, err
		}
		if vas[i], err = g.MapBO(handles[i], mapLen); err != nil {
			return res, err
		}
	}
	if err := g.WriteF32(vas[0], a); err != nil {
		return res, err
	}
	if err := g.WriteF32(vas[1], b); err != nil {
		return res, err
	}
	t.Compute("copy-in", 2*perf.Copy(int(bytes), int(bytes)/mem.PageSize+1))
	if err := g.Compute(handles[0], handles[1], handles[2], n); err != nil {
		return res, err
	}
	got, err := g.ReadF32(vas[2], n*n)
	if err != nil {
		return res, err
	}
	t.Compute("copy-out", perf.Copy(int(bytes), int(bytes)/mem.PageSize+1))
	for _, va := range vas {
		if err := g.UnmapBO(va, mapLen); err != nil {
			return res, err
		}
	}
	res.Elapsed = t.Sim().Now().Sub(start)
	res.Correct = verifyMatmul(a, b, got, n)
	return res, nil
}

// verifyMatmul checks a sample of result entries against a CPU reference
// (the full check for small orders).
func verifyMatmul(a, b, got []float32, n int) bool {
	check := func(i, j int) bool {
		var want float32
		for k := 0; k < n; k++ {
			want += a[i*n+k] * b[k*n+j]
		}
		diff := want - got[i*n+j]
		if diff < 0 {
			diff = -diff
		}
		limit := float32(n) * 1e-4
		return diff <= limit
	}
	if n <= 64 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !check(i, j) {
					return false
				}
			}
		}
		return true
	}
	for s := 0; s < 256; s++ {
		i := (s * 2654435761) % n
		j := (s * 40503) % n
		if !check(i, j) {
			return false
		}
	}
	return true
}
