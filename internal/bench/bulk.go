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

// bulkDev is a pure sink in the driver VM: it moves the bytes across the
// VM boundary (the cost under study) and discards them.
type bulkDev struct{ kernel.BaseOps }

func (d *bulkDev) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	buf := make([]byte, n)
	if err := kernel.CopyFromUser(c, src, buf); err != nil {
		return 0, err
	}
	return n, nil
}

const bulkPath = "/dev/bulk0"

// RunBulk produces the copy-vs-map sweeps and the coalescing burst counts.
func RunBulk(quick bool) ([]Row, error) {
	rotations := 8
	if quick {
		rotations = 3
	}
	copyCfg := paradice.Config{Mode: paradice.Polling}
	mapCfg := paradice.Config{Mode: paradice.Polling, MapCache: true}
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
			m, g, err := devGuest(c.cfg, bulkPath, &bulkDev{})
			if err != nil {
				return nil, err
			}
			per, err := bulkWriteLoop(m, g.K, size, sweepReuse, rotations)
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
			m, g, err := devGuest(c.cfg, bulkPath, &bulkDev{})
			if err != nil {
				return nil, err
			}
			per, err := bulkWriteLoop(m, g.K, sweepSize, r, rotations)
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
		m, g, err := devGuest(paradice.Config{CoalesceWindow: w}, bulkPath, &bulkDev{})
		if err != nil {
			return nil, err
		}
		err = burstWriters(m, g.K, 8)
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
	p, err := k.NewProcess("bulk")
	if err != nil {
		return 0, err
	}
	task := p.Go("loop", func(t *kernel.Task) error {
		fd, err := t.Open(bulkPath, 2)
		if err != nil {
			return err
		}
		var bufs [2]mem.GuestVirt
		for i := range bufs {
			if bufs[i], err = p.AllocBytes(make([]byte, size)); err != nil {
				return err
			}
		}
		start := t.Sim().Now()
		for i := 0; i < iters; i++ {
			if _, err := t.Write(fd, bufs[(i/reuse)%2], size); err != nil {
				return err
			}
		}
		per = t.Sim().Now().Sub(start) / sim.Duration(iters)
		return nil
	})
	m.Run()
	return per, task.Err()
}

// burstWriters opens the device once, then has n tasks write 64 bytes each
// in the same instant — the burst the coalescing window batches.
func burstWriters(m *paradice.Machine, k *kernel.Kernel, n int) error {
	p, err := k.NewProcess("burst")
	if err != nil {
		return err
	}
	opened := m.Env.NewEvent()
	var fd int
	tasks := []*kernel.Task{p.Go("opener", func(t *kernel.Task) (err error) {
		if fd, err = t.Open(bulkPath, 2); err != nil {
			return err
		}
		opened.Trigger()
		return nil
	})}
	for i := 0; i < n; i++ {
		tasks = append(tasks, p.Go(fmt.Sprintf("w%d", i), func(t *kernel.Task) error {
			t.Sim().Wait(opened)
			va, err := p.Alloc(64)
			if err != nil {
				return err
			}
			_, err = t.Write(fd, va, 64)
			return err
		}))
	}
	m.Run()
	for _, t := range tasks {
		if err := t.Err(); err != nil {
			return err
		}
	}
	return nil
}

func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
