package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// The tail-latency experiment: open-loop load against one paravirtualized
// device, swept across offered rates up to past saturation. Unlike every
// closed-loop row in the paper's §6 (one client, next request after the
// last response), this measures what a production frontend sees: requests
// arrive on their own schedule, latency is counted from the *scheduled*
// arrival, and the driver VM's ring is allowed to saturate. Two QoS classes
// share the device — a latency-critical "rt" class (small payloads, never
// admission-limited) and a throughput "bulk" class (larger payloads,
// admission-limited to 80 of the 100 ring slots) — so the sweep shows both
// the saturation knee and what the EAGAIN backpressure buys the rt tail
// when the ring fills.
//
// Everything is seeded and on the virtual clock, so the emitted table is
// byte-identical across runs — which is what lets bench-regress gate p99
// and sustained-throughput rows exactly.

// Tail sweep parameters. The sink's serial service stage (base 2 µs +
// 1 µs/KB) gives the device a hard capacity of ~281 kops/s for the 1:3
// rt:bulk mix, so the swept rates run from ~20% load to ~7% past
// saturation.
var (
	tailRates      = []float64{60_000, 120_000, 180_000, 240_000, 300_000}
	tailQuickRates = []float64{60_000, 180_000, 300_000}
)

const (
	tailSinkBase  = 2 * sim.Microsecond
	tailSinkPerKB = 1 * sim.Microsecond
	tailBulkLimit = 80 // bulk admission: shed at this ring occupancy
	tailSeed      = 42
)

func init() {
	extraExperiments = append(extraExperiments, Experiment{
		ID:    "tail",
		Title: "Open-loop tail latency and sustained throughput under mixed QoS load",
		Run:   RunTail,
	})
}

// tailProfile is the swept workload at one offered rate: a 1:3 rt:bulk mix
// of Poisson arrivals spread over many concurrent guest processes.
func tailProfile(rate float64, quick bool) load.Profile {
	clients, duration := 1000, 30*sim.Millisecond
	if quick {
		clients, duration = 200, 10*sim.Millisecond
	}
	return load.Profile{
		Path: load.SinkPath,
		Classes: []load.Class{
			// The SLOs double as the flight recorder's per-class outlier
			// thresholds: rt is latency-critical, bulk merely bounded.
			{Name: "rt", QoS: 0, Size: 256, Weight: 1, SLO: 200 * sim.Microsecond},
			{Name: "bulk", QoS: 2, Size: 2048, Weight: 3, SLO: 1 * sim.Millisecond},
		},
		Arrival:  load.Poisson,
		Rate:     rate,
		Clients:  clients,
		Duration: duration,
		Seed:     tailSeed,
	}
}

// tailLevel runs one load level on a fresh machine and returns the result
// plus the level's flight recorder — armed always-on with the witness
// classes' SLOs as per-class outlier thresholds, feeding the attribution
// rows. Arming never advances the virtual clock, so the latency rows are
// identical with and without it.
func tailLevel(rate float64, quick bool) (*load.Result, *trace.FlightRecorder, error) {
	m, err := paradice.New(paradice.Config{
		Mode:      paradice.Polling,
		GuestRAM:  256 << 20,
		Admission: map[uint8]int{2: tailBulkLimit},
	})
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	sink := load.NewSink(m.Env, tailSinkBase, tailSinkPerKB)
	m.DriverK.RegisterDevice(load.SinkPath, sink, sink)
	g, err := m.AddGuest("guest1", kernel.Linux)
	if err != nil {
		return nil, nil, err
	}
	if err := g.Paravirtualize(load.SinkPath); err != nil {
		return nil, nil, err
	}
	built(m)
	profile := tailProfile(rate, quick)
	tr := m.Tracer()
	if tr == nil {
		// Production arming: digests only, no unbounded event retention —
		// a 300k-request level stays O(ring capacity). When paradice-bench
		// -trace already installed a tracer, keep its retention so the
		// Chrome export still works, and just arm the recorder on it.
		tr = m.StartTrace()
		tr.SetEventRetention(false)
	}
	fr := tr.ArmFlightRecorder(trace.FlightConfig{ClassThresholds: profile.Thresholds()})
	gen, err := load.NewGenerator(profile)
	if err != nil {
		return nil, nil, err
	}
	if err := gen.Start(g.K); err != nil {
		return nil, nil, err
	}
	m.Run()
	if !gen.Done() {
		return nil, nil, fmt.Errorf("tail: clients did not drain at %.0f/s", rate)
	}
	res := gen.Result()
	if len(res.Violations) > 0 {
		return nil, nil, fmt.Errorf("tail: %d violations at %.0f/s: %s",
			len(res.Violations), rate, res.Violations[0])
	}
	return res, fr, nil
}

// RunTail sweeps the offered rates and emits, per level, the per-class
// p50/p95/p99/p999, the goodput, and the QoS shed counts — then the
// max-sustained-throughput row: the highest swept rate that still completed
// >= 97% of its offered requests.
func RunTail(quick bool) ([]Row, error) {
	rates := tailRates
	if quick {
		rates = tailQuickRates
	}
	quantiles := []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}}

	var rows []Row
	maxSustained := 0.0
	for _, rate := range rates {
		res, fr, err := tailLevel(rate, quick)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("load=%dk/s", int(rate/1000))
		for i := range res.Classes {
			cs := &res.Classes[i]
			for _, qt := range quantiles {
				rows = append(rows, Row{
					Series: cs.Class.Name + " " + qt.name, X: label,
					Value: cs.Lat.Quantile(qt.q).Microseconds(), Unit: "µs",
					Approx: !cs.Lat.Exact(),
				})
			}
			rows = append(rows, Row{
				Series: "shed " + cs.Class.Name, X: label,
				Value: float64(cs.Throttled + cs.Rejected), Unit: "requests",
			})
			// Critical-path attribution: where the class's p99 lives, hop by
			// hop, from the flight recorder's digests. The " p99" suffix puts
			// these rows under the same bench-regress gate as the end-to-end
			// p99s. Hops that never saw time at this level are omitted.
			for h := trace.Hop(0); h < trace.HopCount; h++ {
				hh := fr.HopLatency(cs.Class.QoS, h)
				if hh == nil || hh.Sum == 0 {
					continue
				}
				rows = append(rows, Row{
					Series: fmt.Sprintf("attr %s %s p99", cs.Class.Name, h), X: label,
					Value: hh.Quantile(0.99).Microseconds(), Unit: "µs",
					Approx: !hh.Exact(),
				})
			}
		}
		// Goodput: the slice of the offered rate that actually completed
		// (clients drain their backlog after the arrival window, so a
		// per-wall-clock rate would overcount under overload).
		goodput := 0.0
		if res.Offered > 0 {
			goodput = rate / 1000 * float64(res.OK()) / float64(res.Offered)
		}
		rows = append(rows, Row{Series: "goodput", X: label, Value: goodput, Unit: "kops/s"})
		if res.Offered > 0 && float64(res.OK()) >= 0.97*float64(res.Offered) && rate > maxSustained {
			maxSustained = rate
		}
	}
	rows = append(rows, Row{
		Series: "max-sustained", X: "goodput>=97%",
		Value: maxSustained / 1000, Unit: "kops/s",
	})
	return rows, nil
}
