package bench

import (
	"fmt"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/workload"
)

// The polling-window ablation. §5.1: "the frontend and backend both poll
// the shared page for 200µs before they go to sleep to wait for interrupts.
// The polling period is chosen empirically and is not currently optimized."
// This experiment makes the trade explicit: a window of zero degenerates to
// the interrupt path; growing it buys back round-trip latency on bursty
// workloads (mouse) and throughput at small batches (netmap) until the
// window covers the workload's inter-operation gaps, after which more
// spinning only burns CPU.

// AblationWindows are the swept polling windows.
var AblationWindows = []sim.Duration{
	0, // sleep immediately: the interrupt transport
	10 * sim.Microsecond,
	50 * sim.Microsecond,
	200 * sim.Microsecond, // the paper's choice
	1000 * sim.Microsecond,
}

func init() {
	// Registered here to keep All() in bench.go authoritative for paper
	// experiments; the ablation is this reproduction's own addition.
	extraExperiments = append(extraExperiments, Experiment{
		ID:    "ablation",
		Title: "Ablation: CVD polling window (§5.1's empirically chosen 200µs)",
		Run:   RunAblation,
	})
}

// extraExperiments holds non-paper experiments appended to All().
var extraExperiments []Experiment

// RunAblation sweeps the polling window across three transport-sensitive
// workloads.
func RunAblation(quick bool) ([]Row, error) {
	noopIters := 2000
	pkts := 50000
	mouseSamples := 100
	if quick {
		noopIters, pkts, mouseSamples = 200, 8000, 20
	}
	var rows []Row
	for _, w := range AblationWindows {
		label := fmt.Sprintf("window=%v", w)
		if w == 0 {
			label = "window=0 (interrupts)"
		}

		// No-op round trip.
		m, k, err := pollGuest(w, paradice.PathGPU)
		if err != nil {
			return nil, err
		}
		rt, err := noopRoundTrip(m, k, noopIters)
		m.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Series: "no-op RT", X: label, Value: rt.Microseconds(), Unit: "µs"})

		// netmap at the critical batch size 4.
		m, k, err = pollGuest(w, paradice.PathNetmap)
		if err != nil {
			return nil, err
		}
		res, err := workload.RunPktGen(m.Env, k, 4, pkts, 64)
		m.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Series: "netmap batch=4", X: label, Value: res.MPPS, Unit: "Mpps"})

		// Mouse latency (events ~1 ms apart: beyond any window, so only
		// the intra-burst operations benefit).
		m, k, err = pollGuest(w, paradice.PathMouse)
		if err != nil {
			return nil, err
		}
		mres, err := workload.RunMouseLatency(m.Env, k, m.Mouse, mouseSamples)
		m.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Series: "mouse latency", X: label, Value: mres.Avg.Microseconds(), Unit: "µs"})
	}
	return rows, nil
}

func pollGuest(window sim.Duration, path string) (*paradice.Machine, *kernel.Kernel, error) {
	if window == 0 {
		// The zero-window endpoint of the sweep: sleep immediately, i.e.
		// the interrupt transport.
		return paradiceGuest(paradice.Config{Mode: paradice.Interrupts}, kernel.Linux, path)
	}
	return paradiceGuest(paradice.Config{Mode: paradice.Polling, PollWindow: window}, kernel.Linux, path)
}
