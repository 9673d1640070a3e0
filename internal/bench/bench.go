// Package bench defines the reproduction of every table and figure in the
// paper's evaluation (§6). Each experiment builds the platforms it compares
// (native, direct device assignment, and Paradice in its interrupt, polling,
// FreeBSD-guest, and data-isolation configurations), runs the paper's
// workload, and reports rows in the paper's units alongside the paper's own
// numbers where the paper states them.
//
// Both the testing.B benchmarks at the repository root and the
// paradice-bench command drive these definitions, so the figures in
// EXPERIMENTS.md and the `go test -bench` output come from the same code.
package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/workload"
)

// Row is one data point of an experiment.
type Row struct {
	// Series is the configuration ("Native", "Paradice(P)", ...).
	Series string
	// X is the sweep label ("batch=16", "1024x768", "order=500").
	X string
	// Value is the measured metric.
	Value float64
	// Unit is the metric's unit ("Mpps", "FPS", "s", "µs").
	Unit string
	// Paper is the paper's number for this point, or 0 when the paper
	// shows it only graphically.
	Paper float64
	// Approx marks a quantile row whose histogram spilled its exact-sample
	// reservoir (trace.HistSampleCap): the value is a log2-bucket upper
	// bound, not an exact order statistic. Rendered as a "~" prefix.
	Approx bool `json:",omitempty"`
}

// Experiment is one table or figure.
type Experiment struct {
	ID      string // "fig2", "table1", "noop", ...
	Title   string
	Run     func(quick bool) ([]Row, error)
	IsTable bool // textual table rather than a measured series
}

// All returns every experiment: the paper's tables and figures in paper
// order, followed by this reproduction's own additions (the ablations).
func All() []Experiment {
	return append(paperExperiments(), extraExperiments...)
}

func paperExperiments() []Experiment {
	return []Experiment{
		{ID: "noop", Title: "§6.1.1 no-op file operation forwarding latency", Run: RunNoop},
		{ID: "fig2", Title: "Figure 2: netmap transmit rate, 64-byte packets", Run: RunFig2},
		{ID: "fig3", Title: "Figure 3: OpenGL benchmarks FPS", Run: RunFig3},
		{ID: "fig4", Title: "Figure 4: 3D games FPS at four resolutions", Run: RunFig4},
		{ID: "fig5", Title: "Figure 5: OpenCL matrix multiplication time", Run: RunFig5},
		{ID: "fig6", Title: "Figure 6: concurrent guest VMs sharing the GPU", Run: RunFig6},
		{ID: "mouse", Title: "§6.1.5 mouse latency", Run: RunMouse},
		{ID: "camera", Title: "§6.1.6 camera frame rate", Run: RunCamera},
		{ID: "audio", Title: "§6.1.6 audio playback", Run: RunAudio},
		{ID: "table1", Title: "Table 1: paravirtualized devices and class-specific code", Run: RunTable1, IsTable: true},
		{ID: "table2", Title: "Table 2: code breakdown of this reproduction", Run: RunTable2, IsTable: true},
		{ID: "table3", Title: "Table 3: I/O virtualization solution comparison", Run: RunTable3, IsTable: true},
		{ID: "analyzer", Title: "§4.1 ioctl analyzer on the DRM driver", Run: RunAnalyzer, IsTable: true},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// OnMachine, when non-nil, observes every machine an experiment builds.
// The paradice-bench -trace flag uses it to install a tracer on each one
// and collect the traces after the run; it never alters the measurement
// (tracing reads the virtual clock, it does not advance it).
var OnMachine func(*paradice.Machine)

func built(m *paradice.Machine) *paradice.Machine {
	if OnMachine != nil {
		OnMachine(m)
	}
	return m
}

// --- platform builders ---

func native(cfg paradice.Config) (*paradice.Machine, *kernel.Kernel, error) {
	m, err := paradice.NewNative(cfg)
	if err != nil {
		return nil, nil, err
	}
	return built(m), m.AppKernel(), nil
}

func deviceAssign(cfg paradice.Config) (*paradice.Machine, *kernel.Kernel, error) {
	m, err := paradice.NewDeviceAssignment(cfg)
	if err != nil {
		return nil, nil, err
	}
	return built(m), m.AppKernel(), nil
}

func paradiceGuest(cfg paradice.Config, flavor kernel.Flavor, paths ...string) (*paradice.Machine, *kernel.Kernel, error) {
	m, err := paradice.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := m.AddGuest("guest1", flavor)
	if err != nil {
		return nil, nil, err
	}
	if err := g.Paravirtualize(paths...); err != nil {
		return nil, nil, err
	}
	return built(m), g.K, nil
}

// gpuConfigs are the four configurations of Figures 4 and 5.
type gpuConfig struct {
	name  string
	build func() (*paradice.Machine, *kernel.Kernel, error)
}

func gpuConfigs(withDI bool) []gpuConfig {
	cfgs := []gpuConfig{
		{"Native", func() (*paradice.Machine, *kernel.Kernel, error) {
			return native(paradice.Config{})
		}},
		{"Device-Assign.", func() (*paradice.Machine, *kernel.Kernel, error) {
			return deviceAssign(paradice.Config{})
		}},
		{"Paradice", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.Linux, paradice.PathGPU)
		}},
	}
	if withDI {
		cfgs = append(cfgs, gpuConfig{"Paradice(DI)", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{DataIsolation: true}, kernel.Linux, paradice.PathGPU)
		}})
	}
	return cfgs
}

// --- §6.1.1 no-op latency ---

// RunNoop measures the added forwarding latency of a no-op file operation.
// The paper: ~35 µs with interrupts (two inter-VM interrupts), ~2 µs with
// polling.
func RunNoop(quick bool) ([]Row, error) {
	iters := 10000
	if quick {
		iters = 500
	}
	var rows []Row
	for _, c := range []struct {
		name  string
		mode  paradice.Mode
		paper float64
	}{
		{"Paradice", paradice.Interrupts, 35},
		{"Paradice(P)", paradice.Polling, 2},
	} {
		m, k, err := paradiceGuest(paradice.Config{Mode: c.mode}, kernel.Linux, paradice.PathGPU)
		if err != nil {
			return nil, err
		}
		rt, err := noopRoundTrip(m, k, iters)
		m.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Series: c.name, X: "no-op fileop", Value: rt.Microseconds(), Unit: "µs", Paper: c.paper})
	}
	return rows, nil
}

func noopRoundTrip(m *paradice.Machine, k *kernel.Kernel, iters int) (sim.Duration, error) {
	var rt sim.Duration
	var runErr error
	p, err := k.NewProcess("noop")
	if err != nil {
		return 0, err
	}
	p.SpawnTask("loop", func(t *kernel.Task) {
		fd, err := t.Open(paradice.PathGPU, 2)
		if err != nil {
			runErr = err
			return
		}
		// A 4-byte fence-wait for an already-signaled fence is the closest
		// thing to a no-op the DRM driver exposes; its handler returns
		// immediately. Use the Info ioctl instead: one copy-out.
		arg, _ := p.Alloc(32)
		start := t.Sim().Now()
		for i := 0; i < iters; i++ {
			if _, err := t.Ioctl(fd, infoCmd(), arg); err != nil {
				runErr = err
				return
			}
		}
		rt = t.Sim().Now().Sub(start) / sim.Duration(iters)
	})
	m.Run()
	return rt, runErr
}

// --- Figure 2 ---

// Fig2Batches are the batch sizes of Figure 2.
var Fig2Batches = []int{1, 4, 16, 64, 256}

// RunFig2 sweeps the netmap generator over batch sizes for all five
// configurations of Figure 2.
func RunFig2(quick bool) ([]Row, error) {
	npkts := 300000
	if quick {
		npkts = 20000
	}
	configs := []struct {
		name  string
		build func() (*paradice.Machine, *kernel.Kernel, error)
	}{
		{"Native", func() (*paradice.Machine, *kernel.Kernel, error) { return native(paradice.Config{}) }},
		{"Device-Assign.", func() (*paradice.Machine, *kernel.Kernel, error) { return deviceAssign(paradice.Config{}) }},
		{"Paradice", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.Linux, paradice.PathNetmap)
		}},
		{"Paradice(FL)", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.FreeBSD, paradice.PathNetmap)
		}},
		{"Paradice(P)", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{Mode: paradice.Polling}, kernel.Linux, paradice.PathNetmap)
		}},
	}
	var rows []Row
	for _, c := range configs {
		for _, b := range Fig2Batches {
			m, k, err := c.build()
			if err != nil {
				return nil, err
			}
			res, err := workload.RunPktGen(m.Env, k, b, npkts, 64)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s batch %d: %w", c.name, b, err)
			}
			rows = append(rows, Row{Series: c.name, X: fmt.Sprintf("batch=%d", b), Value: res.MPPS, Unit: "Mpps"})
		}
	}
	return rows, nil
}

// --- Figure 3 ---

// RunFig3 runs the three OpenGL microbenchmarks on native, device
// assignment, Paradice, and Paradice with polling.
func RunFig3(quick bool) ([]Row, error) {
	frames := 120
	if quick {
		frames = 25
	}
	configs := []struct {
		name  string
		build func() (*paradice.Machine, *kernel.Kernel, error)
	}{
		{"Native", func() (*paradice.Machine, *kernel.Kernel, error) { return native(paradice.Config{}) }},
		{"Device-Assign.", func() (*paradice.Machine, *kernel.Kernel, error) { return deviceAssign(paradice.Config{}) }},
		{"Paradice", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.Linux, paradice.PathGPU)
		}},
		{"Paradice(P)", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{Mode: paradice.Polling}, kernel.Linux, paradice.PathGPU)
		}},
	}
	specs := []workload.GLSpec{
		workload.GLVertexBufferObjects,
		workload.GLVertexArrays,
		workload.GLDisplayLists,
	}
	var rows []Row
	for _, c := range configs {
		for _, spec := range specs {
			m, k, err := c.build()
			if err != nil {
				return nil, err
			}
			res, err := workload.RunGL(m.Env, k, spec, frames)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", c.name, spec.Name, err)
			}
			rows = append(rows, Row{Series: c.name, X: spec.Name, Value: res.FPS, Unit: "FPS"})
		}
	}
	return rows, nil
}

// --- Figure 4 ---

// RunFig4 runs the three games at four resolutions across the four GPU
// configurations (including device data isolation).
func RunFig4(quick bool) ([]Row, error) {
	frames := 60
	if quick {
		frames = 12
	}
	games := []workload.GameSpec{workload.GameTremulous, workload.GameOpenArena, workload.GameNexuiz}
	resolutions := workload.GameResolutions
	if quick {
		resolutions = []workload.Resolution{resolutions[0], resolutions[3]}
	}
	var rows []Row
	for _, c := range gpuConfigs(true) {
		for _, game := range games {
			for _, r := range resolutions {
				m, k, err := c.build()
				if err != nil {
					return nil, err
				}
				res, err := workload.RunGL(m.Env, k, game.GL(r), frames)
				m.Close()
				if err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", c.name, game.Name, r, err)
				}
				rows = append(rows, Row{Series: c.name, X: game.Name + " " + r.String(), Value: res.FPS, Unit: "FPS"})
			}
		}
	}
	return rows, nil
}

// --- Figure 5 ---

// Fig5Orders are the matrix orders of Figure 5.
var Fig5Orders = []int{1, 100, 500, 1000}

// RunFig5 times the OpenCL matrix multiplication across the orders and GPU
// configurations, verifying every product.
func RunFig5(quick bool) ([]Row, error) {
	orders := Fig5Orders
	if quick {
		orders = []int{1, 100}
	}
	var rows []Row
	for _, c := range gpuConfigs(true) {
		for _, n := range orders {
			m, k, err := c.build()
			if err != nil {
				return nil, err
			}
			res, err := workload.RunMatmul(m.Env, k, n, int64(n))
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s order %d: %w", c.name, n, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s order %d: wrong product", c.name, n)
			}
			rows = append(rows, Row{Series: c.name, X: fmt.Sprintf("order=%d", n), Value: res.Elapsed.Seconds(), Unit: "s"})
		}
	}
	return rows, nil
}

// --- Figure 6 ---

// RunFig6 runs the order-500 multiplication from 1, 2, and 3 guest VMs
// concurrently on one shared GPU, five back-to-back runs per guest, and
// reports each guest's average experiment time.
func RunFig6(quick bool) ([]Row, error) {
	order, runs := 500, 5
	if quick {
		order, runs = 96, 2
	}
	var rows []Row
	for nguests := 1; nguests <= 3; nguests++ {
		m, err := paradice.New(paradice.Config{})
		if err != nil {
			return nil, err
		}
		type slot struct {
			res []workload.MatmulResult
			err []error
		}
		slots := make([]slot, nguests)
		for i := 0; i < nguests; i++ {
			g, err := m.AddGuest(fmt.Sprintf("vm%d", i+1), kernel.Linux)
			if err != nil {
				return nil, err
			}
			if err := g.Paravirtualize(paradice.PathGPU); err != nil {
				return nil, err
			}
			slots[i].res = make([]workload.MatmulResult, runs)
			slots[i].err = make([]error, runs)
			// Each guest runs the benchmark `runs` times in a row,
			// simultaneously with the other guests (§6.1.4).
			workload.StartMatmulLoop(g.K, order, runs, slots[i].res, slots[i].err)
		}
		built(m)
		m.Run()
		m.Close()
		for i := range slots {
			var total sim.Duration
			for r := 0; r < runs; r++ {
				if slots[i].err[r] != nil {
					return nil, fmt.Errorf("vm%d run %d: %w", i+1, r, slots[i].err[r])
				}
				if !slots[i].res[r].Correct {
					return nil, fmt.Errorf("vm%d run %d: wrong product", i+1, r)
				}
				total += slots[i].res[r].Elapsed
			}
			avg := total / sim.Duration(runs)
			rows = append(rows, Row{
				Series: fmt.Sprintf("VM%d", i+1),
				X:      fmt.Sprintf("guests=%d", nguests),
				Value:  avg.Seconds(), Unit: "s",
			})
		}
	}
	return rows, nil
}

// --- §6.1.5 mouse ---

// RunMouse measures the four mouse-latency configurations.
func RunMouse(quick bool) ([]Row, error) {
	samples := 200
	if quick {
		samples = 30
	}
	configs := []struct {
		name  string
		build func() (*paradice.Machine, *kernel.Kernel, error)
		paper float64
	}{
		{"Native", func() (*paradice.Machine, *kernel.Kernel, error) { return native(paradice.Config{}) }, 39},
		{"Device-Assign.", func() (*paradice.Machine, *kernel.Kernel, error) { return deviceAssign(paradice.Config{}) }, 55},
		{"Paradice", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.Linux, paradice.PathMouse)
		}, 296},
		{"Paradice(P)", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{Mode: paradice.Polling}, kernel.Linux, paradice.PathMouse)
		}, 179},
	}
	var rows []Row
	for _, c := range configs {
		m, k, err := c.build()
		if err != nil {
			return nil, err
		}
		res, err := workload.RunMouseLatency(m.Env, k, m.Mouse, samples)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, Row{Series: c.name, X: "latency", Value: res.Avg.Microseconds(), Unit: "µs", Paper: c.paper})
	}
	return rows, nil
}

// --- §6.1.6 camera ---

// RunCamera measures capture FPS at the three highest MJPG resolutions.
func RunCamera(quick bool) ([]Row, error) {
	frames := 90
	if quick {
		frames = 15
	}
	var rows []Row
	for _, c := range []struct {
		name  string
		build func() (*paradice.Machine, *kernel.Kernel, error)
	}{
		{"Native", func() (*paradice.Machine, *kernel.Kernel, error) { return native(paradice.Config{}) }},
		{"Device-Assign.", func() (*paradice.Machine, *kernel.Kernel, error) { return deviceAssign(paradice.Config{}) }},
		{"Paradice", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.Linux, paradice.PathCamera)
		}},
	} {
		for _, r := range cameraResolutions() {
			m, k, err := c.build()
			if err != nil {
				return nil, err
			}
			res, err := workload.RunCamera(m.Env, k, r, frames)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s %dx%d: %w", c.name, r.W, r.H, err)
			}
			if !res.Verified {
				return nil, fmt.Errorf("%s %dx%d: frame corruption", c.name, r.W, r.H)
			}
			rows = append(rows, Row{Series: c.name, X: fmt.Sprintf("%dx%d", r.W, r.H),
				Value: res.FPS, Unit: "FPS", Paper: 29.5})
		}
	}
	return rows, nil
}

// --- §6.1.6 audio ---

// RunAudio plays the same clip on each configuration; the rows report
// playback time, which must be identical (rate-paced by the codec).
func RunAudio(quick bool) ([]Row, error) {
	seconds := 2.0
	if quick {
		seconds = 0.3
	}
	var rows []Row
	for _, c := range []struct {
		name  string
		build func() (*paradice.Machine, *kernel.Kernel, error)
	}{
		{"Native", func() (*paradice.Machine, *kernel.Kernel, error) { return native(paradice.Config{}) }},
		{"Device-Assign.", func() (*paradice.Machine, *kernel.Kernel, error) { return deviceAssign(paradice.Config{}) }},
		{"Paradice", func() (*paradice.Machine, *kernel.Kernel, error) {
			return paradiceGuest(paradice.Config{}, kernel.Linux, paradice.PathAudio)
		}},
	} {
		m, k, err := c.build()
		if err != nil {
			return nil, err
		}
		res, err := workload.RunAudio(m.Env, k, seconds)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, Row{Series: c.name, X: fmt.Sprintf("%.1fs clip", seconds),
			Value: res.Elapsed.Seconds(), Unit: "s", Paper: seconds})
	}
	return rows, nil
}
