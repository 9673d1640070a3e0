package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
)

// The live-handover experiment: a planned driver-VM handover under sustained
// open-loop load, compared head-to-head against the crash-style
// RestartDriverVM at the same moment of the same workload. The claim under
// test is the tentpole of the handover work: because the successor boots and
// pre-warms while the predecessor still serves, and the switch itself only
// quiesces the rings for the drain window, a planned handover loses zero
// requests and pauses the device for microseconds — where a restart burns
// the full driver-VM boot as an outage and fails every request that arrives
// inside it.
//
// The workload is the PR 6 open-loop generator against the load sink at ~80%
// of the sink's serial capacity, plus a low-rate "witness" writer whose
// >= 2 KiB writes ride the bulk-grant fast path; the witness is what proves
// the successor comes up warm (its map-cache hits are seeded by the handover
// transfer, not by re-faulting).
//
// Everything runs on the virtual clock under fixed seeds, so the emitted
// rows are byte-identical across runs and bench-regress gates them exactly.
// The experiment's claim (claims.go) is that "failed"/handover stays 0.

const (
	hoSize = 2048 // 4 µs service => 250 kops/s sink capacity
	hoSeed = 4242

	// The lifecycle operation fires at this point in the arrival window;
	// prepare then pays the 100 ms successor boot, so the switch (or the
	// restart outage) lands around hoKickAt + CostDriverVMRestart, well
	// inside the arrival window.
	hoKickAt = 1 * sim.Millisecond
)

// hoProfile is the sustained load during the lifecycle operation: one bulk
// class at ~80% of sink capacity (full mode), open-loop Poisson arrivals.
func hoProfile(quick bool) load.Profile {
	rate, clients, duration := 200_000.0, 600, 120*sim.Millisecond
	if quick {
		rate, clients, duration = 60_000.0, 150, 115*sim.Millisecond
	}
	return load.Profile{
		Path:     load.SinkPath,
		Classes:  []load.Class{{Name: "bulk", QoS: 0, Size: hoSize, Weight: 1}},
		Arrival:  load.Poisson,
		Rate:     rate,
		Clients:  clients,
		Duration: duration,
		Seed:     hoSeed,
	}
}

// hoRun is one run of the workload with op fired at hoKickAt.
type hoRun struct {
	m    *paradice.Machine // closed; read for its handover log
	g    *paradice.Guest
	res  *load.Result
	took sim.Duration // virtual time op took

	witnessErrs    int   // failed witness writes (must stay 0 for handover)
	witnessLastErr error // last witness failure, for diagnostics
}

// runHo builds the machine (polling + map cache + translation caching) with
// the sink in every driver-VM generation, starts the generator plus the
// witness writer, fires op at hoKickAt and runs the workload to its end.
func runHo(quick bool, what string, op func(*paradice.Machine) error) (*hoRun, error) {
	m, g, err := sinkGuest(paradice.Config{
		Mode:     paradice.Polling,
		GuestRAM: 256 << 20,
		MapCache: true,
		TLB:      true,
	})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	r := &hoRun{m: m, g: g}
	gen, err := startLoad(g.K, hoProfile(quick))
	if err != nil {
		return nil, err
	}

	// The witness writer: one long-lived fd issuing 4 KiB writes every
	// 250 µs for the whole window. Each write is big enough for the
	// bulk-grant map hint, so pre-handover writes populate the predecessor's
	// map cache and post-handover writes prove the successor inherited it.
	proc, err := g.K.NewProcess("witness")
	if err != nil {
		return nil, err
	}
	dur := hoProfile(quick).Duration
	proc.SpawnTask("writer", func(t *kernel.Task) {
		// The open competes with every generator client's open at t=0.
		var fd int
		err := retryBusy(t, func() (err error) {
			fd, err = t.Open(load.SinkPath, devfile.ORdWr)
			return err
		})
		if err != nil {
			r.witnessErrs++
			r.witnessLastErr = err
			return
		}
		buf, err := proc.Alloc(4096)
		if err != nil {
			r.witnessErrs++
			r.witnessLastErr = err
			return
		}
		end := t.Sim().Now().Add(dur)
		for t.Sim().Now() < end {
			// The post-drain replay burst can transiently fill the ring.
			err := retryBusy(t, func() error {
				_, err := t.Write(fd, buf, 4096)
				return err
			})
			if err != nil {
				r.witnessErrs++
				r.witnessLastErr = err
			}
			t.Sim().Sleep(250 * sim.Microsecond)
		}
		t.Close(fd)
	})

	var opErr error
	m.Env.Spawn(what+"-driver", func(p *sim.Proc) {
		p.Sleep(hoKickAt)
		start := p.Now()
		opErr = op(m)
		r.took = p.Now().Sub(start)
	})
	m.Run()
	if opErr != nil {
		return nil, fmt.Errorf("%s: %w", what, opErr)
	}
	if r.res, err = result(gen, what); err != nil {
		return nil, err
	}
	return r, nil
}

// retryBusy runs op until it fails with something other than EBUSY or
// EAGAIN. Those are backpressure, not loss: a well-behaved app retries
// exactly as it would under plain overload.
func retryBusy(t *kernel.Task, op func() error) error {
	err := op()
	for attempt := 0; err != nil && attempt < 10000 &&
		(kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN)); attempt++ {
		t.Sim().Sleep(20 * sim.Microsecond)
		err = op()
	}
	return err
}

// errorsOf sums the honest-errno failures across classes.
func errorsOf(res *load.Result) uint64 {
	var n uint64
	for i := range res.Classes {
		n += res.Classes[i].Errors
	}
	return n
}

// RunHandover runs the workload twice — once with a planned handover, once
// with RestartDriverVM at the same virtual instant — and reports failed
// requests, downtime, and the handover's replay/warmth counters.
func RunHandover(quick bool) ([]Row, error) {
	ho, err := runHo(quick, "handover", (*paradice.Machine).HandoverDriverVM)
	if err != nil {
		return nil, err
	}
	eps := ho.m.Handovers()
	if len(eps) != 1 || eps[0].Aborted {
		return nil, fmt.Errorf("handover: expected one committed episode, got %+v", eps)
	}
	if ho.witnessErrs != 0 {
		return nil, fmt.Errorf("handover: %d witness writes failed (last: %v)", ho.witnessErrs, ho.witnessLastErr)
	}
	be := ho.g.Frontends[load.SinkPath].Backend()
	warmHits, _, _ := be.MapCacheStats()
	queued := ho.g.Frontends[load.SinkPath].QueuedPosts

	// The same workload with a crash-style restart at the same instant.
	rst, err := runHo(quick, "restart", (*paradice.Machine).RestartDriverVM)
	if err != nil {
		return nil, err
	}

	return []Row{
		{Series: "failed", X: "handover", Value: float64(errorsOf(ho.res)), Unit: "requests"},
		{Series: "failed", X: "restart", Value: float64(errorsOf(rst.res)), Unit: "requests"},
		{Series: "downtime", X: "handover", Value: eps[0].Pause.Microseconds(), Unit: "µs"},
		{Series: "downtime", X: "restart", Value: rst.took.Microseconds(), Unit: "µs"},
		{Series: "queued-replayed", X: "handover", Value: float64(queued), Unit: "posts"},
		{Series: "warm map hits", X: "handover", Value: float64(warmHits), Unit: "hits"},
		{Series: "warm reopens", X: "handover", Value: float64(be.WarmReopens), Unit: "files"},
	}, nil
}
