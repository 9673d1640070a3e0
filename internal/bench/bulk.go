package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// The bulk-transfer experiment: where does mapping the guest buffer into the
// driver VM (grant-map cache) beat the hypervisor-assisted copy? Mapping
// pays per-page EPT work to establish AND tear down each mapping; the
// assisted copy pays a hypercall plus per-page walks and slower per-byte
// work on every operation. The decisive variable is therefore the REUSE
// rate R — how many operations hit a mapping before the application rotates
// to a different buffer: the per-rotation setup+teardown (2·CostMapPage per
// page) amortizes against a per-operation saving that is itself roughly
// per-page, so the crossover sits near a fixed R (~5 with this model's
// constants) at any buffer size, and higher reuse turns the size axis into
// a widening win. The experiment sweeps both axes. The second half counts
// doorbell IRQs for a burst of concurrent writers with and without
// coalescing.

// BulkSizes are the swept transfer sizes.
var BulkSizes = []int{256, 1024, 4096, 16384, 65536}

// BulkReuses are the swept per-mapping reuse rates.
var BulkReuses = []int{1, 2, 4, 8, 16, 32}

func init() {
	extraExperiments = append(extraExperiments, Experiment{
		ID:    "bulk",
		Title: "Bulk transfer: grant-map cache crossover and doorbell coalescing",
		Run:   RunBulk,
	})
}

// bulkDev is a pure sink in the driver VM: it moves the bytes across the
// VM boundary (the cost under study) and discards them.
type bulkDev struct {
	kernel.BaseOps
	sunk int
}

func (d *bulkDev) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	buf := make([]byte, n)
	if err := kernel.CopyFromUser(c, src, buf); err != nil {
		return 0, err
	}
	d.sunk += n
	return n, nil
}

const bulkPath = "/dev/bulk0"

func bulkGuest(cfg paradice.Config) (*paradice.Machine, *kernel.Kernel, *paradice.Guest, error) {
	m, err := paradice.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	dev := &bulkDev{}
	m.DriverK.RegisterDevice(bulkPath, dev, dev)
	g, err := m.AddGuest("guest1", kernel.Linux)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := g.Paravirtualize(bulkPath); err != nil {
		return nil, nil, nil, err
	}
	return built(m), g.K, g, nil
}

// RunBulk produces the copy-vs-map sweeps and the coalescing burst counts.
func RunBulk(quick bool) ([]Row, error) {
	rotations := 8
	if quick {
		rotations = 3
	}
	copyCfg := paradice.Config{Mode: paradice.Polling}
	mapCfg := paradice.Config{Mode: paradice.Polling, MapCache: true,
		MapThreshold: 1} // sweep below the default threshold too
	var rows []Row

	// Size sweep at a reuse rate comfortably past the crossover.
	const sweepReuse = 16
	for _, size := range BulkSizes {
		for _, c := range []struct {
			series string
			cfg    paradice.Config
		}{
			{"assisted copy", copyCfg},
			{fmt.Sprintf("map cache (R=%d)", sweepReuse), mapCfg},
		} {
			m, k, _, err := bulkGuest(c.cfg)
			if err != nil {
				return nil, err
			}
			per, err := bulkWriteLoop(m, k, size, sweepReuse, rotations)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s size %d: %w", c.series, size, err)
			}
			rows = append(rows, Row{Series: c.series, X: sizeLabel(size),
				Value: per.Microseconds(), Unit: "µs/op"})
		}
	}

	// Reuse sweep at 16 KB: the crossover itself.
	const sweepSize = 16384
	for _, r := range BulkReuses {
		for _, c := range []struct {
			series string
			cfg    paradice.Config
		}{
			{"assisted copy @16K", copyCfg},
			{"map cache @16K", mapCfg},
		} {
			m, k, _, err := bulkGuest(c.cfg)
			if err != nil {
				return nil, err
			}
			per, err := bulkWriteLoop(m, k, sweepSize, r, rotations)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s reuse %d: %w", c.series, r, err)
			}
			rows = append(rows, Row{Series: c.series, X: fmt.Sprintf("R=%d", r),
				Value: per.Microseconds(), Unit: "µs/op"})
		}
	}

	// Doorbell coalescing: 8 writers post in a burst; without a window every
	// post rings the backend, with one the burst shares a single IRQ.
	for _, w := range []sim.Duration{0, 40 * sim.Microsecond} {
		label := "window=0 (off)"
		if w != 0 {
			label = fmt.Sprintf("window=%v", w)
		}
		m, k, g, err := bulkGuest(paradice.Config{CoalesceWindow: w})
		if err != nil {
			return nil, err
		}
		err = burstWriters(m, k, 8)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("coalesce %s: %w", label, err)
		}
		fe := g.Frontends[bulkPath]
		rows = append(rows, Row{Series: "doorbell IRQs (8-post burst)", X: label,
			Value: float64(fe.DoorbellIRQs), Unit: "IRQs"})
	}
	return rows, nil
}

// bulkWriteLoop writes size bytes reuse·rotations times, rotating between
// two user buffers every `reuse` operations so each grant mapping is hit
// exactly that many times before being torn down, and returns the
// per-operation latency.
func bulkWriteLoop(m *paradice.Machine, k *kernel.Kernel, size, reuse, rotations int) (sim.Duration, error) {
	iters := reuse * rotations
	var per sim.Duration
	var runErr error
	p, err := k.NewProcess("bulk")
	if err != nil {
		return 0, err
	}
	p.SpawnTask("loop", func(t *kernel.Task) {
		fd, err := t.Open(bulkPath, 2)
		if err != nil {
			runErr = err
			return
		}
		var bufs [2]mem.GuestVirt
		for i := range bufs {
			va, err := p.Alloc(size)
			if err != nil {
				runErr = err
				return
			}
			if err := p.Mem.Write(va, make([]byte, size)); err != nil {
				runErr = err
				return
			}
			bufs[i] = va
		}
		start := t.Sim().Now()
		for i := 0; i < iters; i++ {
			if _, err := t.Write(fd, bufs[(i/reuse)%2], size); err != nil {
				runErr = err
				return
			}
		}
		per = t.Sim().Now().Sub(start) / sim.Duration(iters)
	})
	m.Run()
	return per, runErr
}

// burstWriters opens the device once, then has n tasks write 64 bytes each
// in the same instant — the burst the coalescing window batches.
func burstWriters(m *paradice.Machine, k *kernel.Kernel, n int) error {
	var runErr error
	p, err := k.NewProcess("burst")
	if err != nil {
		return err
	}
	opened := m.Env.NewEvent("bulk-opened")
	var fd int
	p.SpawnTask("opener", func(t *kernel.Task) {
		f, err := t.Open(bulkPath, 2)
		if err != nil {
			runErr = err
			return
		}
		fd = f
		opened.Trigger()
	})
	for i := 0; i < n; i++ {
		p.SpawnTask(fmt.Sprintf("w%d", i), func(t *kernel.Task) {
			t.Sim().Wait(opened)
			va, err := p.Alloc(64)
			if err != nil {
				runErr = err
				return
			}
			if _, err := t.Write(fd, va, 64); err != nil {
				runErr = err
				return
			}
		})
	}
	m.Run()
	return runErr
}

func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
