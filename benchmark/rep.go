package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"paradice"
	"paradice/internal/trace"
)

// Setup phases. Their wall times sum to setup_s, before scaling to
// reference speed.
const (
	phaseBuild = iota // paradice.New and device registration
	phaseGuest        // AddGuest and Paravirtualize
	phaseLoad         // generator construction and Start, or the closed loop's process
	phases
)

var phaseNames = [phases]string{"setup.build_s", "setup.guest_s", "setup.load_s"}

// profileHz is the CPU-profile sampling rate of a traced rep: the default
// 100 Hz gives too few samples in a one-second run to split by module. The
// kernel's timer tick may cap the rate actually reached. Setting it makes
// pprof.StartCPUProfile print a warning, which the parent drops.
const profileHz = 1000

// rep is one (workload, rep) in one process: what the workload reports and
// what is measured around it.
type rep struct {
	seed   int64
	traced bool
	sc     scale

	setup    [phases]time.Duration
	runWall  time.Duration // inside Machine.Run, less the workload's own checks
	checking time.Duration // wall time the workload spent checking outputs
	ops      int           // operations completed inside Machine.Run

	attempted, failed int
	v                 map[string]float64 // virtual-time results
	notes             []string

	primary primaryRun
}

// primaryRun is the machine the per-layer metrics describe: the only one,
// or serve-mixed's 180k/s level. A traced rep traces it alone.
type primaryRun struct {
	ops        int // operations completed on it, set by the workload
	wall       time.Duration
	tracer     *trace.Tracer
	flight     *trace.FlightRecorder
	sched      *schedCounter
	profile    bytes.Buffer
	mem0, mem1 runtime.MemStats
}

func newRep(seed int64, traced bool, sc scale) *rep {
	r := &rep{seed: seed, traced: traced, sc: sc, v: make(map[string]float64)}
	for k, v := range vDefaults {
		r.v[k] = v
	}
	return r
}

// timed runs fn and charges its wall time to a setup phase.
func (r *rep) timed(phase int, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.setup[phase] += time.Since(t0)
	return err
}

// check runs an output check inside the simulation and keeps its wall time
// out of the host time per op.
func (r *rep) check(fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.checking += time.Since(t0)
	return err
}

// drive runs m until its calendar drains. On the primary machine of a traced
// rep it first installs the tracer with the flight recorder, a counting
// scheduler observer and a CPU profile, all of which only read the clock.
func (r *rep) drive(m *paradice.Machine, primary bool) {
	p := &r.primary
	traced := r.traced && primary
	if traced {
		p.tracer = m.StartTrace()
		p.tracer.SetEventRetention(false)
		p.flight = p.tracer.ArmFlightRecorder(trace.FlightConfig{})
		p.sched = &schedCounter{}
		m.Env.Observer = p.sched
		runtime.ReadMemStats(&p.mem0)
		runtime.SetCPUProfileRate(profileHz)
		// The profile goes to memory; starting can only fail if another
		// profile is running, and none is.
		_ = pprof.StartCPUProfile(&p.profile)
	}
	checked := r.checking
	t0 := time.Now()
	m.Run()
	wall := time.Since(t0) - (r.checking - checked)
	r.runWall += wall
	if primary {
		p.wall = wall
	}
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&p.mem1)
		m.StopTrace()
		m.Env.Observer = nil
	}
}

// dispose releases a machine through Close when the machine offers one.
func dispose(m *paradice.Machine) {
	switch c := any(m).(type) {
	case io.Closer:
		_ = c.Close()
	case interface{ Close() }:
		c.Close()
	}
}

// repResult is what one (workload, rep) reports to the parent process.
type repResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// V holds virtual-time results: identical on every rep of a seed.
	V map[string]float64 `json:"v"`
	// L holds the deterministic per-layer counts of a traced rep.
	L map[string]float64 `json:"l,omitempty"`
	// H holds this rep's host measurements.
	H     map[string]float64 `json:"h"`
	Notes []string           `json:"notes,omitempty"`
}

// result gathers the rep's measurements. base is the goroutine count before
// the workload started.
func (r *rep) result(base int) (*repResult, error) {
	if r.ops == 0 || r.primary.ops == 0 {
		return nil, fmt.Errorf("no operations completed")
	}
	res := &repResult{
		Attempted: r.attempted, Failed: r.failed,
		V: r.v, H: make(map[string]float64), Notes: r.notes,
	}
	var setup time.Duration
	for i, d := range r.setup {
		res.H[phaseNames[i]] = d.Seconds()
		setup += d
	}
	res.H["setup_s"] = setup.Seconds()
	res.H["host.raw_us_per_op"] = usPerOp(r.runWall, r.ops)
	res.H["primary_us_per_op"] = usPerOp(r.primary.wall, r.primary.ops)
	res.H["primary_ns"] = float64(r.primary.wall.Nanoseconds())
	if r.traced {
		l, h, err := r.primary.layers()
		if err != nil {
			return nil, err
		}
		res.L = l
		for k, v := range h {
			res.H[k] = v
		}
	}
	res.H["sim.goroutines_left"] = float64(runtime.NumGoroutine() - base)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.H["host.heap_retained_mib"] = float64(ms.HeapInuse) / (1 << 20)
	return res, nil
}

func usPerOp(d time.Duration, ops int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(ops)
}

// runRep runs one rep of w in this process.
func runRep(w *workload, seed int64, traced bool, sc scale) (*repResult, error) {
	base := runtime.NumGoroutine()
	r := newRep(seed, traced, sc)
	if err := w.run(r); err != nil {
		return nil, err
	}
	return r.result(base)
}
