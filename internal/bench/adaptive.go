package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/load"
	"paradice/internal/sim"
)

// The adaptive-transport experiment: the same open-loop sink workload swept
// from far below the poll threshold to past it, under four transports —
// static interrupts, interrupts with multi-entry batching armed, static
// polling, and the adaptive NAPI-style transport. The claim under test is
// the envelope: adaptive must track the BETTER static mode at both ends of
// the sweep, within 10%, while burning no spin at low load.
//
//   - At the low end (2 k/s, inter-arrival ~500 µs, far above the 32 µs
//     poll threshold) the adaptive channel never leaves interrupt stance:
//     its latency matches static interrupts and its spin time is zero,
//     where static polling pays an idle poll window per wake.
//   - At the high end (240 k/s, inter-arrival ~4 µs) the EWMA flips the
//     channel to poll stance within the first dozen posts: its latency
//     matches static polling, where static interrupts pays the inter-VM
//     IRQ round trip per operation.
//
// Everything is seeded and on the virtual clock, so the emitted rows are
// byte-identical across runs and bench-regress gates the envelope ratios
// exactly.

// Adaptive sweep parameters. The 256-byte payload gives the sink a ~2.25 µs
// service time (capacity ~440 kops/s), so the top swept rate is ~55% load —
// deep in poll-stance territory without saturating the ring.
var (
	adaptiveRates      = []float64{2_000, 15_000, 60_000, 150_000, 240_000}
	adaptiveQuickRates = []float64{2_000, 60_000, 240_000}
)

const adaptiveSeed = 91

// adaptiveConfigs are the four transports under sweep. The batched config
// arms the multi-entry submission/completion rings on the static interrupt
// path — the amortization story — while the adaptive config deliberately
// leaves batching off: its job here is the latency envelope, and a batch
// window would tax exactly the low-load end the envelope gates.
var adaptiveConfigs = []struct {
	name string
	cfg  paradice.Config
}{
	{"interrupts", paradice.Config{Mode: paradice.Interrupts}},
	{"interrupts+batch", paradice.Config{
		Mode:           paradice.Interrupts,
		CoalesceWindow: 20 * sim.Microsecond,
	}},
	{"polling", paradice.Config{Mode: paradice.Polling}},
	{"adaptive", paradice.Config{Mode: paradice.Adaptive}},
}

// adaptiveProfile is the swept workload at one offered rate: one small-payload
// class of Poisson arrivals spread over concurrent guest processes. The client
// count scales with the rate (~3 k/s each): a fixed large pool would open the
// device in a burst at t=0 and flip the adaptive stance to polling even at
// 2 k/s offered load, charging the low-load levels a spin cost that is an
// artifact of the harness, not of the transport under test.
func adaptiveProfile(rate float64, quick bool) load.Profile {
	clients := int(rate / 3000)
	if clients < 1 {
		clients = 1
	}
	duration := 20 * sim.Millisecond
	if quick {
		duration = 8 * sim.Millisecond
	}
	return load.Profile{
		Path: load.SinkPath,
		Classes: []load.Class{
			{Name: "rt", QoS: 0, Size: 256, Weight: 1},
		},
		Arrival:  load.Poisson,
		Rate:     rate,
		Clients:  clients,
		Duration: duration,
		Seed:     adaptiveSeed,
	}
}

// adaptiveOutcome is one (transport, rate) cell of the sweep.
type adaptiveOutcome struct {
	p50       float64 // end-to-end p50, µs
	spinPerOp float64 // (frontend + backend) spin time per completed op, µs
	doorbells float64 // doorbell IRQs actually sent
}

// adaptiveLevel runs one transport at one offered rate on a fresh machine.
func adaptiveLevel(cfg paradice.Config, rate float64, quick bool) (adaptiveOutcome, error) {
	cfg.GuestRAM = 256 << 20
	m, g, err := sinkGuest(cfg)
	if err != nil {
		return adaptiveOutcome{}, err
	}
	defer m.Close()
	gen, err := startLoad(g.K, adaptiveProfile(rate, quick))
	if err != nil {
		return adaptiveOutcome{}, err
	}
	m.Run()
	res, err := result(gen, fmt.Sprintf("adaptive at %.0f/s", rate))
	if err != nil {
		return adaptiveOutcome{}, err
	}
	fe := g.Frontends[load.SinkPath]
	be := fe.Backend()
	ok := res.OK()
	if ok == 0 {
		return adaptiveOutcome{}, fmt.Errorf("adaptive: no completions at %.0f/s", rate)
	}
	spin := fe.SpinTime + be.SpinTime
	return adaptiveOutcome{
		p50:       res.Classes[0].Lat.Quantile(0.50).Microseconds(),
		spinPerOp: spin.Microseconds() / float64(ok),
		doorbells: float64(fe.DoorbellIRQs),
	}, nil
}

// RunAdaptive sweeps the offered rates across the four transports and emits,
// per level, the per-transport p50, spin per op, and doorbell IRQ count —
// then the three envelope gate rows bench-regress pins:
//
//	envelope/high-vs-best-static  adaptive p50 / min(static p50) at the top rate
//	envelope/low-vs-interrupts    adaptive p50 / interrupt p50 at the bottom rate
//	excess-spin/low-load          adaptive spin − interrupt spin (µs/op, baseline 0)
func RunAdaptive(quick bool) ([]Row, error) {
	rates := adaptiveRates
	if quick {
		rates = adaptiveQuickRates
	}
	outcomes := make(map[string]map[float64]adaptiveOutcome)
	var rows []Row
	for _, rate := range rates {
		label := fmt.Sprintf("load=%dk/s", int(rate/1000))
		for _, c := range adaptiveConfigs {
			out, err := adaptiveLevel(c.cfg, rate, quick)
			if err != nil {
				return nil, err
			}
			if outcomes[c.name] == nil {
				outcomes[c.name] = make(map[float64]adaptiveOutcome)
			}
			outcomes[c.name][rate] = out
			rows = append(rows,
				Row{Series: "p50 " + c.name, X: label, Value: out.p50, Unit: "µs"},
				Row{Series: "spin " + c.name, X: label, Value: out.spinPerOp, Unit: "µs/op"},
				Row{Series: "doorbells " + c.name, X: label, Value: out.doorbells, Unit: "IRQs"},
			)
		}
	}
	low, high := rates[0], rates[len(rates)-1]
	bestStaticHigh := outcomes["interrupts"][high].p50
	if p := outcomes["polling"][high].p50; p < bestStaticHigh {
		bestStaticHigh = p
	}
	rows = append(rows,
		Row{Series: "envelope", X: "high-vs-best-static",
			Value: outcomes["adaptive"][high].p50 / bestStaticHigh, Unit: "ratio"},
		Row{Series: "envelope", X: "low-vs-interrupts",
			Value: outcomes["adaptive"][low].p50 / outcomes["interrupts"][low].p50, Unit: "ratio"},
		Row{Series: "excess-spin", X: "low-load",
			Value: outcomes["adaptive"][low].spinPerOp - outcomes["interrupts"][low].spinPerOp,
			Unit:  "µs/op"},
	)
	return rows, nil
}
