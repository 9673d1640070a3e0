package workload

import (
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
)

// PktGenResult is one netmap generator run.
type PktGenResult struct {
	Batch   int
	Packets int
	Elapsed sim.Duration
	// MPPS is the transmit rate in million packets per second.
	MPPS float64
}

// RunPktGen transmits npkts fixed-size packets as fast as possible with one
// poll per batch — the §6.1.2 experiment behind Figure 2.
func RunPktGen(env *sim.Env, k *kernel.Kernel, batch, npkts, pktLen int) (PktGenResult, error) {
	res := PktGenResult{Batch: batch, Packets: npkts}
	p, err := k.NewProcess("pkt-gen")
	if err != nil {
		return res, err
	}
	task := p.Go("tx", func(t *kernel.Task) error {
		nm, err := usrlib.OpenNetmap(t, "/dev/netmap")
		if err != nil {
			return err
		}
		defer nm.Close()
		// Pre-fault the mapped area so steady-state measurement excludes
		// the one-time page faults (pkt-gen's warm-up).
		if err := nm.FillBatch(nm.NumSlots-1, pktLen, 0); err != nil {
			return err
		}
		if err := nm.Sync(); err != nil {
			return err
		}
		if err := nm.Drain(); err != nil {
			return err
		}
		// A batch can never exceed the ring's usable capacity.
		if batch >= nm.NumSlots {
			batch = nm.NumSlots - 1
		}
		start := t.Sim().Now()
		sent := 0
		for sent < npkts {
			b := batch
			if npkts-sent < b {
				b = npkts - sent
			}
			// Fill at most what the ring has free (pkt-gen's discipline:
			// never overwrite slots the hardware still owns).
			free, err := nm.Free()
			if err != nil {
				return err
			}
			for free == 0 {
				if err := nm.Sync(); err != nil {
					return err
				}
				if free, err = nm.Free(); err != nil {
					return err
				}
				if free == 0 {
					t.Sim().Sleep(5 * sim.Microsecond)
				}
			}
			if free < b {
				b = free
			}
			if err := nm.FillBatch(b, pktLen, byte(sent)); err != nil {
				return err
			}
			if err := nm.Sync(); err != nil {
				return err
			}
			sent += b
		}
		// Count only wire-complete packets: wait for the ring to drain.
		if err := nm.Drain(); err != nil {
			return err
		}
		res.Elapsed = t.Sim().Now().Sub(start)
		res.MPPS = float64(npkts) / res.Elapsed.Seconds() / 1e6
		return nil
	})
	env.Run()
	return res, task.Err()
}
