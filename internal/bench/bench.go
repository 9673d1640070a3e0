// Package bench defines the reproduction of every table and figure in the
// paper's evaluation (§6). Each experiment builds the platforms it compares
// (native, direct device assignment, and Paradice in its interrupt, polling,
// FreeBSD-guest, and data-isolation configurations), runs the paper's
// workload, and reports rows in the paper's units alongside the paper's own
// numbers where the paper states them.
//
// The paradice-bench command runs these definitions for the figures in
// EXPERIMENTS.md. The paper's qualitative conclusions are stated once, as
// claims on the rows (claims.go): TestAllExperimentsRegistered checks them on
// the quick rows in every `go test ./...`, and cmd/bench-regress on the full
// rows of every new run.
package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/device/camera"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
	"paradice/internal/load"
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
	// reservoir (trace.HistSampleCap): the value is the largest sample in
	// the rank's log2 bucket, an upper bound rather than an exact order
	// statistic. Rendered as a "~" prefix.
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
// order, followed by this reproduction's own additions.
func All() []Experiment {
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
		{ID: "ablation", Title: "Ablation: CVD polling window (§5.1's empirically chosen 200µs)", Run: RunAblation},
		{ID: "adaptive", Title: "Adaptive transport envelope: batched rings and NAPI-style stance switching under swept load", Run: RunAdaptive},
		{ID: "bulk", Title: "Bulk transfer: grant-map cache crossover and doorbell coalescing", Run: RunBulk},
		{ID: "handover", Title: "Planned driver-VM handover vs restart under open-loop load", Run: RunHandover},
		{ID: "multivm", Title: "Multi-guest scale-out across sharded driver VMs with the backend worker pool", Run: RunMultiVM},
		{ID: "tail", Title: "Open-loop tail latency and sustained throughput under mixed QoS load", Run: RunTail},
		{ID: "walkcache", Title: "Translation cache: software TLB and batched grant hypercalls", Run: RunWalkcache},
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

// --- platforms ---

// platform is one configuration the evaluation compares. A Paradice
// platform runs the workload in guest VM guest1 of the given flavor; the
// baselines run it on the machine's own kernel.
type platform struct {
	name   string
	kind   paradice.Kind
	cfg    paradice.Config
	flavor kernel.Flavor
}

// The platforms of the paper's §6.
var (
	pNative   = platform{name: "Native", kind: paradice.KindNative}
	pAssign   = platform{name: "Device-Assign.", kind: paradice.KindDeviceAssign}
	pParadice = platform{name: "Paradice"}
	pPolling  = platform{name: "Paradice(P)", cfg: paradice.Config{Mode: paradice.Polling}}
	pFreeBSD  = platform{name: "Paradice(FL)", flavor: kernel.FreeBSD}
	pIsolated = platform{name: "Paradice(DI)", cfg: paradice.Config{DataIsolation: true}}
)

// boot builds a fresh machine of the platform with the standard device at
// path paravirtualized, and returns it with the kernel applications run on.
func (p platform) boot(path string) (*paradice.Machine, *kernel.Kernel, error) {
	if p.kind != paradice.KindParadice {
		newMachine := paradice.NewNative
		if p.kind == paradice.KindDeviceAssign {
			newMachine = paradice.NewDeviceAssignment
		}
		m, err := newMachine(p.cfg)
		if err != nil {
			return nil, nil, err
		}
		return built(m), m.AppKernel(), nil
	}
	m, err := paradice.New(p.cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := guestOn(m, p.flavor, path, nil)
	if err != nil {
		return nil, nil, err
	}
	return m, g.K, nil
}

// guestOn adds guest1 to the Paradice machine m with path paravirtualized.
// A non-nil dev is first registered at path in every driver VM the machine
// boots, so a harness device survives a restart or handover. On error m is
// closed.
func guestOn(m *paradice.Machine, flavor kernel.Flavor, path string, dev kernel.FileOps) (g *paradice.Guest, err error) {
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	if dev != nil {
		if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
			k.RegisterDevice(path, dev, dev)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if g, err = m.AddGuest("guest1", flavor); err != nil {
		return nil, err
	}
	if err := g.Paravirtualize(path); err != nil {
		return nil, err
	}
	built(m)
	return g, nil
}

// devGuest builds a Paradice machine whose guest1 drives the harness
// device dev at path.
func devGuest(cfg paradice.Config, path string, dev kernel.FileOps) (*paradice.Machine, *paradice.Guest, error) {
	m, err := paradice.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := guestOn(m, kernel.Linux, path, dev)
	if err != nil {
		return nil, nil, err
	}
	return m, g, nil
}

// --- open-loop load ---

// The load sink's serial service time: 2 µs per request plus 1 µs per KB
// of payload (~440 kops/s for 256 bytes, 250 kops/s for 2 KB).
const (
	sinkBase  = 2 * sim.Microsecond
	sinkPerKB = 1 * sim.Microsecond
)

// sinkGuest builds a Paradice machine whose guest1 drives a load sink at
// load.SinkPath.
func sinkGuest(cfg paradice.Config) (*paradice.Machine, *paradice.Guest, error) {
	m, err := paradice.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := guestOn(m, kernel.Linux, load.SinkPath, load.NewSink(m.Env, sinkBase, sinkPerKB))
	if err != nil {
		return nil, nil, err
	}
	return m, g, nil
}

// startLoad starts profile's open-loop clients on k.
func startLoad(k *kernel.Kernel, profile load.Profile) (*load.Generator, error) {
	gen, err := load.NewGenerator(profile)
	if err != nil {
		return nil, err
	}
	return gen, gen.Start(k)
}

// result returns gen's result once the machine has run, failing when the
// clients did not drain or a request broke a load invariant.
func result(gen *load.Generator, what string) (*load.Result, error) {
	if !gen.Done() {
		return nil, fmt.Errorf("%s: clients did not drain", what)
	}
	res := gen.Result()
	if len(res.Violations) > 0 {
		return nil, fmt.Errorf("%s: %d violations: %s", what, len(res.Violations), res.Violations[0])
	}
	return res, nil
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
		p     platform
		paper float64
	}{{pParadice, 35}, {pPolling, 2}} {
		m, k, err := c.p.boot(paradice.PathGPU)
		if err != nil {
			return nil, err
		}
		rt, err := noopRoundTrip(m, k, iters)
		m.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Series: c.p.name, X: "no-op fileop", Value: rt.Microseconds(), Unit: "µs", Paper: c.paper})
	}
	return rows, nil
}

func noopRoundTrip(m *paradice.Machine, k *kernel.Kernel, iters int) (sim.Duration, error) {
	var rt sim.Duration
	p, err := k.NewProcess("noop")
	if err != nil {
		return 0, err
	}
	task := p.Go("loop", func(t *kernel.Task) error {
		fd, err := t.Open(paradice.PathGPU, 2)
		if err != nil {
			return err
		}
		// The DRM Info ioctl stands in for a no-op: its handler does no
		// work beyond one 32-byte copy-out.
		arg, _ := p.Alloc(32)
		start := t.Sim().Now()
		for i := 0; i < iters; i++ {
			if _, err := t.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
				return err
			}
		}
		rt = t.Sim().Now().Sub(start) / sim.Duration(iters)
		return nil
	})
	m.Run()
	return rt, task.Err()
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
	var rows []Row
	for _, p := range []platform{pNative, pAssign, pParadice, pFreeBSD, pPolling} {
		for _, b := range Fig2Batches {
			m, k, err := p.boot(paradice.PathNetmap)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunPktGen(m.Env, k, b, npkts, 64)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s batch %d: %w", p.name, b, err)
			}
			rows = append(rows, Row{Series: p.name, X: fmt.Sprintf("batch=%d", b), Value: res.MPPS, Unit: "Mpps"})
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
	specs := []workload.GLSpec{
		workload.GLVertexBufferObjects,
		workload.GLVertexArrays,
		workload.GLDisplayLists,
	}
	var rows []Row
	for _, p := range []platform{pNative, pAssign, pParadice, pPolling} {
		for _, spec := range specs {
			m, k, err := p.boot(paradice.PathGPU)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunGL(m.Env, k, spec, frames)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", p.name, spec.Name, err)
			}
			rows = append(rows, Row{Series: p.name, X: spec.Name, Value: res.FPS, Unit: "FPS"})
		}
	}
	return rows, nil
}

// gpuPlatforms are the four configurations of Figures 4 and 5.
var gpuPlatforms = []platform{pNative, pAssign, pParadice, pIsolated}

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
	for _, p := range gpuPlatforms {
		for _, game := range games {
			for _, r := range resolutions {
				m, k, err := p.boot(paradice.PathGPU)
				if err != nil {
					return nil, err
				}
				res, err := workload.RunGL(m.Env, k, game.GL(r), frames)
				m.Close()
				if err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", p.name, game.Name, r, err)
				}
				rows = append(rows, Row{Series: p.name, X: game.Name + " " + r.String(), Value: res.FPS, Unit: "FPS"})
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
	for _, p := range gpuPlatforms {
		for _, n := range orders {
			m, k, err := p.boot(paradice.PathGPU)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunMatmul(m.Env, k, n, int64(n))
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s order %d: %w", p.name, n, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s order %d: wrong product", p.name, n)
			}
			rows = append(rows, Row{Series: p.name, X: fmt.Sprintf("order=%d", n), Value: res.Elapsed.Seconds(), Unit: "s"})
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
			res  []workload.MatmulResult
			task *kernel.Task
		}
		slots := make([]slot, nguests)
		for i := 0; i < nguests; i++ {
			g, err := m.AddGuest(fmt.Sprintf("vm%d", i+1), kernel.Linux)
			if err == nil {
				err = g.Paravirtualize(paradice.PathGPU)
			}
			if err == nil {
				// Each guest runs the benchmark `runs` times in a row,
				// simultaneously with the other guests (§6.1.4).
				slots[i].res = make([]workload.MatmulResult, runs)
				slots[i].task, err = workload.StartMatmulLoop(g.K, order, slots[i].res)
			}
			if err != nil {
				m.Close()
				return nil, err
			}
		}
		built(m)
		m.Run()
		m.Close()
		for i := range slots {
			if err := slots[i].task.Err(); err != nil {
				return nil, fmt.Errorf("vm%d: %w", i+1, err)
			}
			var total sim.Duration
			for r := 0; r < runs; r++ {
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
	var rows []Row
	for _, c := range []struct {
		p     platform
		paper float64
	}{{pNative, 39}, {pAssign, 55}, {pParadice, 296}, {pPolling, 179}} {
		m, k, err := c.p.boot(paradice.PathMouse)
		if err != nil {
			return nil, err
		}
		res, err := workload.RunMouseLatency(m.Env, k, m.Mouse, samples)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.p.name, err)
		}
		rows = append(rows, Row{Series: c.p.name, X: "latency", Value: res.Avg.Microseconds(), Unit: "µs", Paper: c.paper})
	}
	return rows, nil
}

// --- §6.1.6 camera and audio ---

// mediaPlatforms are the configurations of §6.1.6.
var mediaPlatforms = []platform{pNative, pAssign, pParadice}

// RunCamera measures capture FPS at the three highest MJPG resolutions.
func RunCamera(quick bool) ([]Row, error) {
	frames := 90
	if quick {
		frames = 15
	}
	var rows []Row
	for _, p := range mediaPlatforms {
		for _, r := range camera.Resolutions {
			m, k, err := p.boot(paradice.PathCamera)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunCamera(m.Env, k, r, frames)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s %dx%d: %w", p.name, r.W, r.H, err)
			}
			if !res.Verified {
				return nil, fmt.Errorf("%s %dx%d: frame corruption", p.name, r.W, r.H)
			}
			rows = append(rows, Row{Series: p.name, X: camLabel(r),
				Value: res.FPS, Unit: "FPS", Paper: 29.5})
		}
	}
	return rows, nil
}

// RunAudio plays the same clip on each configuration; the rows report
// playback time, which must be identical (rate-paced by the codec).
func RunAudio(quick bool) ([]Row, error) {
	seconds := 2.0
	if quick {
		seconds = 0.3
	}
	var rows []Row
	for _, p := range mediaPlatforms {
		m, k, err := p.boot(paradice.PathAudio)
		if err != nil {
			return nil, err
		}
		res, err := workload.RunAudio(m.Env, k, seconds)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		rows = append(rows, Row{Series: p.name, X: fmt.Sprintf("%.1fs clip", seconds),
			Value: res.Elapsed.Seconds(), Unit: "s", Paper: seconds})
	}
	return rows, nil
}
