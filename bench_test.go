package paradice_test

// The §6.1.1 no-op goldens: the end-to-end no-op latencies that every
// dormant, disabled or armed-but-idle feature must reproduce bit for bit.
// The paper's qualitative conclusions are checked elsewhere, as claims on
// the experiment rows (internal/bench/claims.go).

import (
	"testing"

	"paradice"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// The end-to-end no-op latencies of the seed cost model, captured before the
// trace instrumentation landed.
const (
	noopGoldenInterrupts = 35309 * sim.Nanosecond
	noopGoldenPolling    = 3109 * sim.Nanosecond
)

// noopLoop issues iters §6.1.1 no-ops from one task on gk: it opens the GPU,
// allocates a 32-byte argument, and times each DRM Info ioctl on it. The
// last one is in steady state for every transport.
func noopLoop(t *testing.T, m *paradice.Machine, gk *kernel.Kernel, iters int) []sim.Duration {
	t.Helper()
	p, err := gk.NewProcess("noop")
	if err != nil {
		t.Fatal(err)
	}
	var lat []sim.Duration
	var runErr error
	p.SpawnTask("loop", func(tk *kernel.Task) {
		fd, err := tk.Open(paradice.PathGPU, 2)
		if err != nil {
			runErr = err
			return
		}
		arg, err := p.Alloc(32)
		if err != nil {
			runErr = err
			return
		}
		for i := 0; i < iters; i++ {
			start := tk.Sim().Now()
			if _, err := tk.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
				runErr = err
				return
			}
			lat = append(lat, tk.Sim().Now().Sub(start))
		}
	})
	m.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return lat
}

// TestTracingDisabledLatencyGolden runs the §6.1.1 no-op through the fully
// instrumented stack with no tracer installed and demands the
// pre-instrumentation latencies exactly.
func TestTracingDisabledLatencyGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		mode paradice.Mode
		want sim.Duration
	}{
		{"interrupts", paradice.Interrupts, noopGoldenInterrupts},
		{"polling", paradice.Polling, noopGoldenPolling},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, gk := guestKernel(t, paradice.Config{Mode: c.mode}, paradice.PathGPU)
			last := noopLoop(t, m, gk, 4)[3]
			if last != c.want {
				t.Fatalf("no-op latency with tracing disabled = %v, pre-instrumentation golden %v", last, c.want)
			}
		})
	}
}

// TestFastPathDisabledGolden runs the §6.1.1 no-op through the fully
// instrumented stack with no tracer installed, and with the grant-map cache
// and doorbell coalescing compiled into the CVD layer but switched off — and
// even with the map cache ON for a workload it never serves (ioctls carry no
// bulk data). The latencies must match the goldens bit for
// bit: observability reads the virtual clock, it never advances it, and a
// disabled optimization that shifts the baseline is a cost-model regression.
func TestFastPathDisabledGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  paradice.Config
		want sim.Duration
	}{
		{"interrupts-off", paradice.Config{Mode: paradice.Interrupts}, noopGoldenInterrupts},
		{"polling-off", paradice.Config{Mode: paradice.Polling}, noopGoldenPolling},
		{"interrupts-mapcache-idle", paradice.Config{Mode: paradice.Interrupts, MapCache: true}, noopGoldenInterrupts},
		{"polling-mapcache-idle", paradice.Config{Mode: paradice.Polling, MapCache: true}, noopGoldenPolling},
		// Walkcache compiled in but explicitly off, alongside every other
		// fast-path knob: the TLB field must be inert when false even with
		// the rest of the fast path armed-but-idle.
		{"interrupts-walkcache-off", paradice.Config{Mode: paradice.Interrupts, MapCache: true, TLB: false}, noopGoldenInterrupts},
		{"polling-walkcache-off", paradice.Config{Mode: paradice.Polling, MapCache: true, TLB: false}, noopGoldenPolling},
		// The adaptive transport at closed-loop no-op load never leaves
		// interrupt stance (the ~35 µs round trip IS the inter-arrival gap,
		// above the poll threshold), so it must reproduce the interrupt
		// golden bit for bit — the dormancy guarantee that makes Adaptive
		// safe to configure fleet-wide.
		{"adaptive-dormant", paradice.Config{Mode: paradice.Adaptive}, noopGoldenInterrupts},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, gk := guestKernel(t, c.cfg, paradice.PathGPU)
			last := noopLoop(t, m, gk, 4)[3]
			if last != c.want {
				t.Fatalf("no-op latency = %v with the fast path dormant, golden %v", last, c.want)
			}
		})
	}
}

// TestWalkcacheArmedGolden pins the armed translation-cache behavior to the
// cost model exactly. With TLB on, the §6.1.1 no-op changes in
// two precisely predictable ways: every validation after the frontend's
// declare is a grant-cache hit (CostTLBHit instead of the CostGrantDeclare
// shared-page scan — from the FIRST operation, because the declare itself
// primes the cache), and every copy page after the first operation is a TLB
// hit (CostTLBHit instead of the CostCopyPerPage walk). Nothing else moves.
func TestWalkcacheArmedGolden(t *testing.T) {
	validateSaving := perf.CostGrantDeclare - perf.CostTLBHit
	walkSaving := perf.CostCopyPerPage - perf.CostTLBHit
	for _, c := range []struct {
		name   string
		mode   paradice.Mode
		golden sim.Duration
	}{
		{"interrupts", paradice.Interrupts, noopGoldenInterrupts},
		{"polling", paradice.Polling, noopGoldenPolling},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := paradice.Config{Mode: c.mode, TLB: true}
			m, gk := guestKernel(t, cfg, paradice.PathGPU)
			lat := noopLoop(t, m, gk, 4)
			first, last := lat[0], lat[3]
			if want := c.golden - validateSaving; first != want {
				t.Fatalf("first armed no-op = %v, want golden-%v = %v", first, validateSaving, want)
			}
			if want := c.golden - validateSaving - walkSaving; last != want {
				t.Fatalf("warm armed no-op = %v, want golden-%v = %v", last, validateSaving+walkSaving, want)
			}
		})
	}
}

// TestTracerNilSinkZeroAllocs asserts the disabled-tracing hot path is
// allocation-free: every call instrumented code can make against the nil
// sink — the tracer lookup included — costs zero allocations.
func TestTracerNilSinkZeroAllocs(t *testing.T) {
	env := sim.NewEnv() // no tracer installed: Get returns the nil sink
	allocs := testing.AllocsPerRun(200, func() {
		tr := trace.Get(env)
		_ = tr.Now()
		_ = tr.NewRID()
		tr.Span(1, "vm", trace.LayerFE, "post", 0, 100)
		tr.Group(1, "vm", trace.LayerSyscall, "ioctl", 0, 100)
		tr.Instant(1, "vm", trace.LayerFaults, "point", "")
		tr.Add("counter", 1)
		tr.Set("gauge", 1)
		tr.Observe("hist", 100)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink tracer API allocates %.1f per call sequence, want 0", allocs)
	}
}
