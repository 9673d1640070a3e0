package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
)

// The multi-guest scale-out experiment, this reproduction's addition: the
// paper's evaluation ends at Figure 6, guest VMs sharing one GPU. The sweep
// runs 1→32 guests, each with its own sink device and its own open-loop
// Poisson source at a fixed per-guest rate, across the three transports.
// The machine under test is the sharded scale-out configuration: the
// per-guest devices are pinned round-robin across four driver-VM shards and
// each shard serves its channels through a bounded round-robin worker pool
// — the tentpole machinery this experiment exists to measure.
//
// The headline series is scaling efficiency: aggregate throughput at N
// guests divided by N times the single-guest baseline. The gate, enforced
// here, is that the adaptive transport sustains ≥ 0.85 efficiency at 8
// guests — aggregate throughput at least 6.8× the 1-guest baseline.
//
// Throughput is measured over the makespan (virtual time of the last event,
// which includes draining any backlog past the offered window), so a
// configuration that falls behind at scale shows up as lost efficiency, not
// as a silently stretched run.

// Multi-VM sweep parameters. Each guest offers 12 k/s against its own
// private sink (capacity ~440 kops/s for the 256-byte payload), so the
// devices themselves never saturate: any efficiency loss is transport,
// pool, or shard contention — the thing under test.
var (
	multivmGuests      = []int{1, 2, 4, 8, 16, 32}
	multivmQuickGuests = []int{1, 8}
)

const (
	multivmPerGuestRate = 12_000
	multivmSinkBase     = 2 * sim.Microsecond
	multivmSinkPerKB    = 1 * sim.Microsecond
	multivmSeed         = 173
	multivmMaxShards    = 4
	multivmWorkers      = 4

	// The in-run acceptance gate: adaptive scaling efficiency at 8 guests.
	multivmGateGuests     = 8
	multivmGateEfficiency = 0.85
)

// multivmConfigs are the transports under sweep. Every level runs the full
// scale-out machine: sharded driver VMs and the bounded worker pool.
var multivmConfigs = []struct {
	name string
	mode paradice.Mode
}{
	{"interrupts", paradice.Interrupts},
	{"polling", paradice.Polling},
	{"adaptive", paradice.Adaptive},
}

// multivmSinkPath is guest i's private sink device path.
func multivmSinkPath(i int) string { return fmt.Sprintf("/dev/loadsink%d", i) }

// multivmProfile is one guest's offered load: small-payload Poisson arrivals
// at the fixed per-guest rate, seeded per guest so the arrival processes are
// independent streams, not N copies of one.
func multivmProfile(guest int, quick bool) load.Profile {
	duration := 20 * sim.Millisecond
	if quick {
		duration = 8 * sim.Millisecond
	}
	return load.Profile{
		Path: multivmSinkPath(guest),
		Classes: []load.Class{
			{Name: "rt", QoS: 0, Size: 256, Weight: 1},
		},
		Arrival:  load.Poisson,
		Rate:     multivmPerGuestRate,
		Clients:  4,
		Duration: duration,
		Seed:     multivmSeed + int64(guest),
	}
}

// multivmOutcome is one (transport, guest-count) cell.
type multivmOutcome struct {
	tput   float64 // aggregate completed ops per second of makespan, kops/s
	p99Max float64 // worst per-guest p99, µs
}

// multivmLevel runs one transport at one guest count on a fresh sharded
// machine.
func multivmLevel(mode paradice.Mode, guests int, quick bool) (multivmOutcome, error) {
	shards := guests
	if shards > multivmMaxShards {
		shards = multivmMaxShards
	}
	m, err := paradice.New(paradice.Config{
		Mode: mode,
		// Host RAM scales with the VM population: N guests plus the driver
		// shards plus headroom, 64 MiB each.
		HostRAM:      uint64(guests+shards+2) * (64 << 20),
		GuestRAM:     32 << 20,
		DriverShards: shards,
		Workers:      multivmWorkers,
	})
	if err != nil {
		return multivmOutcome{}, err
	}
	defer m.Close()
	// Each guest gets a private sink, installed in every shard's kernel (the
	// boot hook runs everywhere) and pinned round-robin so the shards split
	// the channel population evenly.
	for i := 0; i < guests; i++ {
		sink := load.NewSink(m.Env, multivmSinkBase, multivmSinkPerKB)
		path := multivmSinkPath(i)
		if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
			k.RegisterDevice(path, sink, sink)
			return nil
		}); err != nil {
			return multivmOutcome{}, err
		}
		if err := m.PinDevice(path, i%shards); err != nil {
			return multivmOutcome{}, err
		}
	}
	gens := make([]*load.Generator, guests)
	for i := 0; i < guests; i++ {
		g, err := m.AddGuest(fmt.Sprintf("guest%d", i+1), kernel.Linux)
		if err != nil {
			return multivmOutcome{}, err
		}
		if err := g.Paravirtualize(multivmSinkPath(i)); err != nil {
			return multivmOutcome{}, err
		}
		gen, err := load.NewGenerator(multivmProfile(i, quick))
		if err != nil {
			return multivmOutcome{}, err
		}
		gens[i] = gen
		if err := gen.Start(g.K); err != nil {
			return multivmOutcome{}, err
		}
	}
	built(m)
	m.Run()

	var totalOps uint64
	var p99Max float64
	for i, gen := range gens {
		if !gen.Done() {
			return multivmOutcome{}, fmt.Errorf("multivm: guest %d clients did not drain at %d guests", i, guests)
		}
		res := gen.Result()
		if len(res.Violations) > 0 {
			return multivmOutcome{}, fmt.Errorf("multivm: guest %d: %d violations at %d guests: %s",
				i, len(res.Violations), guests, res.Violations[0])
		}
		ok := res.OK()
		if ok == 0 {
			return multivmOutcome{}, fmt.Errorf("multivm: guest %d completed nothing at %d guests", i, guests)
		}
		totalOps += ok
		if p := res.Classes[0].Lat.Quantile(0.99).Microseconds(); p > p99Max {
			p99Max = p
		}
	}
	makespan := sim.Duration(m.Env.Now()).Seconds()
	if makespan <= 0 {
		return multivmOutcome{}, fmt.Errorf("multivm: empty run at %d guests", guests)
	}
	return multivmOutcome{
		tput:   float64(totalOps) / makespan / 1000,
		p99Max: p99Max,
	}, nil
}

func init() {
	extraExperiments = append(extraExperiments, Experiment{
		ID:    "multivm",
		Title: "Multi-guest scale-out across sharded driver VMs with the backend worker pool",
		Run:   RunMultiVM,
	})
}

// RunMultiVM sweeps the guest count across the three transports and emits,
// per level, the aggregate throughput and the worst per-guest p99 — then
// the per-transport scaling-efficiency rows bench-regress pins. Efficiency
// at N is aggregate throughput at N divided by N× the same transport's
// 1-guest throughput; the adaptive transport must clear 0.85 at 8 guests.
func RunMultiVM(quick bool) ([]Row, error) {
	counts := multivmGuests
	if quick {
		counts = multivmQuickGuests
	}
	outcomes := make(map[string]map[int]multivmOutcome)
	var rows []Row
	for _, n := range counts {
		label := fmt.Sprintf("guests=%d", n)
		for _, c := range multivmConfigs {
			out, err := multivmLevel(c.mode, n, quick)
			if err != nil {
				return nil, err
			}
			if outcomes[c.name] == nil {
				outcomes[c.name] = make(map[int]multivmOutcome)
			}
			outcomes[c.name][n] = out
			rows = append(rows,
				Row{Series: "tput " + c.name, X: label, Value: out.tput, Unit: "kops/s"},
				Row{Series: "p99 " + c.name, X: label, Value: out.p99Max, Unit: "µs"},
			)
		}
	}
	for _, c := range multivmConfigs {
		base := outcomes[c.name][counts[0]].tput // counts always starts at 1 guest
		for _, n := range counts {
			if n == 1 {
				continue
			}
			eff := outcomes[c.name][n].tput / (float64(n) * base)
			rows = append(rows, Row{
				Series: "efficiency " + c.name,
				X:      fmt.Sprintf("guests=%d", n),
				Value:  eff,
				Unit:   "ratio",
			})
			if c.name == "adaptive" && n == multivmGateGuests && eff < multivmGateEfficiency {
				return nil, fmt.Errorf(
					"multivm: adaptive scaling efficiency %.3f at %d guests below the %.2f gate (aggregate %.1f kops/s vs 1-guest %.1f kops/s)",
					eff, n, multivmGateEfficiency, outcomes[c.name][n].tput, base)
			}
		}
	}
	return rows, nil
}
