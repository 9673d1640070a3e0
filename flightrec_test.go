package paradice_test

// The flight recorder's root-level contract: arming it perturbs nothing —
// the §6.1.1 no-op latency goldens hold bit for bit with the recorder on —
// and every digest it captures tiles: the per-hop durations sum exactly to
// the request's end-to-end latency, with the root group's duration agreeing
// with the digest's. This is the attribution analogue of
// TestNoopSpanReconciliation: every nanosecond of a request lands in exactly
// one hop bucket, nothing unaccounted.

import (
	"testing"

	"paradice"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// armedNoop is tracedNoop with the flight recorder armed on the tracer
// before any request runs.
func armedNoop(t *testing.T, mode paradice.Mode, iters int) (*trace.Tracer, *trace.FlightRecorder) {
	t.Helper()
	m, gk := guestKernel(t, paradice.Config{Mode: mode}, paradice.PathGPU)
	tr := m.StartTrace()
	t.Cleanup(func() { m.StopTrace() })
	fr := tr.ArmFlightRecorder(trace.FlightConfig{})
	noopLoop(t, m, gk, iters)
	return tr, fr
}

// TestFlightArmedGoldenUnperturbed runs the §6.1.1 no-op with the flight
// recorder armed and demands the dormant-path latency goldens exactly:
// recording digests reads the virtual clock, it never advances it.
func TestFlightArmedGoldenUnperturbed(t *testing.T) {
	for _, c := range []struct {
		name string
		mode paradice.Mode
		want sim.Duration
	}{
		{"interrupts", paradice.Interrupts, noopGoldenInterrupts},
		{"polling", paradice.Polling, noopGoldenPolling},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, fr := armedNoop(t, c.mode, 4)
			root := lastIoctlRoot(t, tr)
			if root.Dur() != c.want {
				t.Fatalf("armed no-op latency %v != golden %v: arming the flight recorder perturbed the simulation\n%s",
					root.Dur(), c.want, dumpRID(tr, root.RID))
			}
			if fr.Total() == 0 {
				t.Fatal("flight recorder armed but captured no digests")
			}
		})
	}
}

// TestFlightDigestTilesEndToEnd checks, for every digest the armed no-op run
// captured, that the hop durations sum exactly to the digest's end-to-end
// latency — and that the last ioctl's digest agrees with its root trace
// group in both identity and duration.
func TestFlightDigestTilesEndToEnd(t *testing.T) {
	for _, mode := range []paradice.Mode{paradice.Interrupts, paradice.Polling} {
		tr, fr := armedNoop(t, mode, 4)
		root := lastIoctlRoot(t, tr)
		foundRoot := false
		for _, d := range fr.Digests() {
			var sum sim.Duration
			for h := trace.Hop(0); h < trace.HopCount; h++ {
				sum += d.Hops[h]
			}
			if sum != d.Latency() {
				t.Fatalf("mode %v rid %d: hops sum %v != end-to-end %v (digest %+v)",
					mode, d.RID, sum, d.Latency(), d)
			}
			if d.RID == root.RID {
				foundRoot = true
				if d.Latency() != root.Dur() {
					t.Fatalf("mode %v rid %d: digest latency %v != root group duration %v",
						mode, d.RID, d.Latency(), root.Dur())
				}
			}
		}
		if !foundRoot {
			t.Fatalf("mode %v: no digest for the last ioctl (rid %d)", mode, root.RID)
		}
	}
}
