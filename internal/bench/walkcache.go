package bench

import (
	"encoding/binary"
	"fmt"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// The translation-cache experiment: how much of a small operation's latency
// is per-request translation work — the grant declare, the shared-page grant
// scan at validation, and the per-page two-level walk of §5.2 — and how much
// of it translation caching (Config.TLB: the hypervisor's software TLB plus
// batched grant hypercalls) recovers when an application re-touches
// the same buffers. Small operations are where it matters: a no-op-sized
// ioctl spends a fifth of its polled latency re-proving translations the
// previous request already proved. The experiment sweeps the echoed payload
// size cold vs warm, reports the steady-state TLB hit rate, and counts
// frontend grant crossings for a scatter-gather command submission with and
// without batching.

// WalkSizes are the swept echoed-ioctl payload sizes, all within the
// small-transfer regime the assisted copy (not the map cache) serves.
var WalkSizes = []int{64, 256, 1024, 2048}

// echoDev echoes an ioctl payload back through the two assisted copies the
// command encodes (_IOWR: copy in, copy out) — the minimal operation whose
// cost is dominated by crossings plus translation work.
type echoDev struct{ kernel.BaseOps }

func (d *echoDev) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, cmd.Size())
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

const echoPath = "/dev/echo0"

func echoCmd(size int) devfile.IoctlCmd { return devfile.IOWR('w', 0x01, uint32(size)) }

// traceOn returns the tracer on m, installing one unless OnMachine already
// did, so an experiment that reads trace metrics shares the tracer
// paradice-bench -trace exports.
func traceOn(m *paradice.Machine) *trace.Tracer {
	if tr := m.Tracer(); tr != nil {
		return tr
	}
	return m.StartTrace()
}

// RunWalkcache produces the cold/warm small-op sweep, the steady-state TLB
// hit rate, and the batched-declare crossing counts.
func RunWalkcache(quick bool) ([]Row, error) {
	iters := 16
	if quick {
		iters = 6
	}
	coldCfg := paradice.Config{Mode: paradice.Polling}
	warmCfg := paradice.Config{Mode: paradice.Polling, TLB: true}
	var rows []Row

	// Size sweep: identical echo loops, translation caches off vs on. The
	// measured value is the steady-state per-op latency (the last iteration —
	// the caches are warm from iteration 2 on; the simulation is
	// deterministic so one op is the converged value).
	for _, size := range WalkSizes {
		for _, c := range []struct {
			series string
			cfg    paradice.Config
		}{
			{"per-request walks", coldCfg},
			{"translation cache", warmCfg},
		} {
			m, g, err := devGuest(c.cfg, echoPath, &echoDev{})
			if err != nil {
				return nil, err
			}
			last, err := echoLoop(m, g.K, size, iters)
			m.Close()
			if err != nil {
				return nil, fmt.Errorf("%s size %d: %w", c.series, size, err)
			}
			rows = append(rows, Row{Series: c.series, X: sizeLabel(size),
				Value: last.Microseconds(), Unit: "µs/op"})
		}
	}

	// Steady-state TLB hit rate for the 1 KB echo loop: after the first
	// iteration proves the argument page, every later walk is a hit.
	{
		m, g, err := devGuest(warmCfg, echoPath, &echoDev{})
		if err != nil {
			return nil, err
		}
		tr := traceOn(m)
		_, err = echoLoop(m, g.K, 1024, iters)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("hit-rate loop: %w", err)
		}
		hits := tr.Metrics().Counter("hv.tlb.hit")
		misses := tr.Metrics().Counter("hv.tlb.miss")
		if hits+misses > 0 {
			rows = append(rows, Row{Series: "TLB hit rate (1K echo)", X: fmt.Sprintf("N=%d", iters),
				Value: 100 * float64(hits) / float64(hits+misses), Unit: "%"})
		}
	}

	// Batched grant hypercalls: a scatter-gather command submission (the
	// Radeon CS pattern — header, descriptor block, 8 scattered chunks)
	// declares its whole grant vector. Per-entry, that is one frontend
	// crossing per vector entry; batched, the vector travels in ONE crossing.
	for _, c := range []struct {
		label string
		cfg   paradice.Config
	}{
		{"per-entry", coldCfg},
		{"batched", warmCfg},
	} {
		crossings, err := csDeclareCrossings(c.cfg)
		if err != nil {
			return nil, fmt.Errorf("crossings %s: %w", c.label, err)
		}
		rows = append(rows, Row{Series: "grant crossings (8-chunk CS)", X: c.label,
			Value: float64(crossings), Unit: "crossings"})
	}
	return rows, nil
}

// echoLoop issues iters echo ioctls of the given size from one task and
// returns the LAST iteration's latency (steady state for caches and for the
// polling transport alike).
func echoLoop(m *paradice.Machine, k *kernel.Kernel, size, iters int) (sim.Duration, error) {
	var last sim.Duration
	p, err := k.NewProcess("echo")
	if err != nil {
		return 0, err
	}
	task := p.Go("loop", func(t *kernel.Task) error {
		fd, err := t.Open(echoPath, 2)
		if err != nil {
			return err
		}
		arg, err := p.Alloc(size)
		if err != nil {
			return err
		}
		if err := p.Mem.Write(arg, make([]byte, size)); err != nil {
			return err
		}
		cmd := echoCmd(size)
		for i := 0; i < iters; i++ {
			start := t.Sim().Now()
			if _, err := t.Ioctl(fd, cmd, arg); err != nil {
				return err
			}
			last = t.Sim().Now().Sub(start)
		}
		return nil
	})
	m.Run()
	return last, task.Err()
}

// csDeclareCrossings builds a full Paradice machine with the GPU
// paravirtualized, submits one 8-chunk command stream (7 relocation-style
// chunks plus one IB chunk, every payload at a scattered user address), and
// returns how many frontend grant crossings the submission's declare took.
func csDeclareCrossings(cfg paradice.Config) (uint64, error) {
	m, k, err := platform{cfg: cfg}.boot(paradice.PathGPU)
	if err != nil {
		return 0, err
	}
	defer m.Close()

	const nchunks = 8
	var before, after uint64
	p, err := k.NewProcess("cs")
	if err != nil {
		return 0, err
	}
	tr := traceOn(m)
	task := p.Go("submit", func(t *kernel.Task) error {
		fd, err := t.Open(paradice.PathGPU, 2)
		if err != nil {
			return err
		}
		// Scattered chunk payloads: each allocation lands on its own fresh
		// address, so no two grant entries can coalesce.
		descs := make([]byte, 16*nchunks)
		for i := 0; i < nchunks; i++ {
			kind := uint32(0) // relocation-style: copied, carries no commands
			words := []uint32{0xC0DE0000 + uint32(i)}
			if i == nchunks-1 {
				kind = drm.ChunkIB
				words = []uint32{0} // harmless IB: no recognised opcode words
			}
			payload := make([]byte, len(words)*4)
			for j, w := range words {
				binary.LittleEndian.PutUint32(payload[j*4:], w)
			}
			va, err := p.AllocBytes(payload)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(descs[16*i:], uint64(va))
			binary.LittleEndian.PutUint32(descs[16*i+8:], uint32(len(words)))
			binary.LittleEndian.PutUint32(descs[16*i+12:], kind)
		}
		descVA, err := p.AllocBytes(descs)
		if err != nil {
			return err
		}
		hdr := make([]byte, 16)
		binary.LittleEndian.PutUint32(hdr[0:], nchunks)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(descVA))
		hdrVA, err := p.AllocBytes(hdr)
		if err != nil {
			return err
		}
		before = tr.Metrics().Counter("cvd.fe.grant.crossings")
		if _, err := t.Ioctl(fd, drm.IoctlCS, hdrVA); err != nil {
			return err
		}
		after = tr.Metrics().Counter("cvd.fe.grant.crossings")
		return nil
	})
	m.Run()
	if err := task.Err(); err != nil {
		return 0, err
	}
	return after - before, nil
}
