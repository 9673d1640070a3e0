package cvd

// Tests for the adaptive transport: NAPI-style per-channel switching between
// interrupt and poll stance driven by the observed arrival rate, plus the
// multi-entry completion batching that rides the same knobs. The key safety
// property — an adaptive channel under sparse load is the EXACT interrupt
// path, bit-identical on the virtual clock — is asserted directly here and
// again by the dormant goldens in the bench package.

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// A burst of concurrent requesters pushes the inter-arrival EWMA below the
// poll threshold: the channel flips to poll stance, posts start hitting the
// spinning backend IRQ-free, and after the load stops one sparse post flips
// it back to interrupts.
func TestAdaptiveSwitchesToPollUnderLoadAndBack(t *testing.T) {
	r := newRig(t, Adaptive, kernel.Linux)
	r.traced()
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent()
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.ORdWr)
		opened.Trigger()
	})
	const workers, opsEach = 8, 30
	for i := 0; i < workers; i++ {
		app.SpawnTask("worker", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			for j := 0; j < opsEach; j++ {
				if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.env.Run()
	if !r.fe.stance {
		t.Fatal("frontend never entered poll stance under 8-way closed-loop load")
	}
	if r.count(t, "cvd.adaptive.switches") == 0 {
		t.Fatal("cvd.adaptive.switches = 0, want >= 1")
	}
	if r.be.PolledPosts == 0 {
		t.Fatal("no post was ever observed by the spinning backend: poll stance never engaged the polled path")
	}
	switchesUnderLoad := r.count(t, "cvd.adaptive.switches")

	// One sparse post after a long idle gap: the capped gap yanks the EWMA
	// back above the threshold and the channel re-arms interrupts BEFORE
	// forwarding, so the op itself takes the interrupt path.
	app.SpawnTask("straggler", func(tk *kernel.Task) {
		tk.Sim().Sleep(5 * sim.Millisecond)
		if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	if r.fe.stance {
		t.Fatal("frontend still in poll stance after a 5 ms idle gap")
	}
	if n := r.count(t, "cvd.adaptive.switches"); n <= switchesUnderLoad {
		t.Fatalf("cvd.adaptive.switches = %d, want > %d (the idle gap must flip the stance back)",
			n, switchesUnderLoad)
	}
}

// An adaptive channel under sparse load must be the interrupt path exactly:
// same virtual-clock timings, same IRQ counts, op for op. This is the
// dormancy guarantee that lets Adaptive be configured fleet-wide without
// perturbing latency-sensitive idle channels.
func TestAdaptiveQuiescentMatchesInterruptsExactly(t *testing.T) {
	run := func(mode Mode) (elapsed sim.Duration, doorbells, wakes uint64) {
		r := newRig(t, mode, kernel.Linux)
		var end sim.Time
		r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
			fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
			for i := 0; i < 20; i++ {
				tk.Sim().Sleep(200 * sim.Microsecond) // far above the poll threshold
				if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
					t.Fatal(err)
				}
			}
			end = tk.Sim().Now()
		})
		return sim.Duration(end), r.fe.DoorbellIRQs, r.be.WakeIRQs
	}
	iElapsed, iDoorbells, iWakes := run(Interrupts)
	aElapsed, aDoorbells, aWakes := run(Adaptive)
	if aElapsed != iElapsed {
		t.Fatalf("quiescent adaptive elapsed %v, interrupts %v: must be bit-identical", aElapsed, iElapsed)
	}
	if aDoorbells != iDoorbells || aWakes != iWakes {
		t.Fatalf("IRQ counts diverge: adaptive %d/%d, interrupts %d/%d",
			aDoorbells, aWakes, iDoorbells, iWakes)
	}
}

// Completion batching: with CoalesceWindow set, up to CoalesceBatch
// completions share one response IRQ under the size+deadline policy,
// mirroring the submission side. Execution order is untouched — batching
// delays notification, never reorders work.
func TestCompletionBatchingSharesResponseIRQ(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 50 * sim.Microsecond
	})
	r.traced()
	app, _ := r.guestK.NewProcess("app")
	opened := r.env.NewEvent()
	var fd int
	app.SpawnTask("opener", func(tk *kernel.Task) {
		fd, _ = tk.Open("/dev/testdev", devfile.OWrOnly)
		opened.Trigger()
	})
	for i := 0; i < CoalesceBatch; i++ {
		i := i
		app.SpawnTask("writer", func(tk *kernel.Task) {
			tk.Sim().Wait(opened)
			src, _ := app.AllocBytes([]byte{byte('A' + i)})
			if _, err := tk.Write(fd, src, 1); err != nil {
				t.Error(err)
			}
		})
	}
	r.env.Run()
	// The open's completion flushes alone at the deadline; the 8 writes'
	// completions hit the size trigger and share one more response IRQ.
	if n := r.count(t, "cvd.backend.resp.flushes"); n != 2 {
		t.Fatalf("cvd.backend.resp.flushes = %d, want 2 (open solo + one full write batch)", n)
	}
	if string(r.drv.data) != "ABCDEFGH" {
		t.Fatalf("driver saw order %q, want ABCDEFGH", r.drv.data)
	}
	// Submission side batched too: the 8 posts shared one doorbell.
	if r.fe.DoorbellIRQs != 2 {
		t.Fatalf("DoorbellIRQs = %d, want 2", r.fe.DoorbellIRQs)
	}
}

// The watchdog heartbeat must bypass completion batching: supervision's
// detection latency cannot be inflated by a batch window.
func TestHeartbeatBypassesCompletionBatch(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, func(c *Config) {
		c.CoalesceWindow = 500 * sim.Microsecond
	})
	r.traced()
	ok := false
	r.env.Spawn("watchdog", func(p *sim.Proc) {
		ok = r.fe.Heartbeat(p, 200*sim.Microsecond)
	})
	r.env.RunUntil(sim.Time(sim.Millisecond))
	if !ok {
		t.Fatal("heartbeat missed its 200 µs budget under a 500 µs batch window: acks must bypass the batch")
	}
	if n := r.count(t, "cvd.backend.resp.flushes"); n != 0 {
		t.Fatalf("cvd.backend.resp.flushes = %d for a heartbeat-only run, want 0", n)
	}
}
