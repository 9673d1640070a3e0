package cvd

// Table tests for the transport policy both ends of a channel embed: the
// adaptive stance's EWMA and the size+deadline batching, driven directly on
// the virtual clock with no channel around them.

import (
	"slices"
	"testing"

	"paradice/internal/perf"
	"paradice/internal/sim"
)

func repeatGap(d sim.Duration, n int) []sim.Duration {
	gaps := make([]sim.Duration, n)
	for i := range gaps {
		gaps[i] = d
	}
	return gaps
}

func TestPolicyStance(t *testing.T) {
	const g = perf.AdaptivePollGap
	cases := []struct {
		name  string
		mode  Mode
		gaps  []sim.Duration // gaps before the 2nd, 3rd, ... arrival
		flips []int          // arrivals (0 = the first) at which the stance flips
	}{
		{"first arrival starts in interrupt stance", Adaptive, nil, nil},
		{"gap cap returns to poll within 8 back-to-back arrivals", Adaptive, repeatGap(0, 8), []int{8}},
		{"half-threshold gaps", Adaptive, repeatGap(g/2, 10), []int{10}},
		{"gaps at the threshold never flip", Adaptive, repeatGap(g, 50), nil},
		{"an idle gap re-arms interrupts at once, and the cap bounds the way back", Adaptive,
			slices.Concat(repeatGap(0, 8), []sim.Duration{5 * sim.Millisecond}, repeatGap(0, 8)), []int{8, 9, 13}},
		{"interrupts never flip", Interrupts, repeatGap(0, 20), nil},
		{"polling never flips", Polling, append(repeatGap(0, 10), repeatGap(sim.Millisecond, 10)...), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := policy{mode: c.mode, window: perf.PollWindow}
			now := sim.Time(sim.Millisecond)
			var flips []int
			for i := 0; i <= len(c.gaps); i++ {
				if i > 0 {
					now = now.Add(c.gaps[i-1])
				}
				if p.arrive(now) {
					flips = append(flips, i)
				}
			}
			if !slices.Equal(flips, c.flips) {
				t.Fatalf("stance flipped at arrivals %v, want %v", flips, c.flips)
			}
			if want := c.mode == Polling || len(c.flips)%2 == 1; p.polling() != want {
				t.Fatalf("polling() = %v, want %v", p.polling(), want)
			}
			p.window = 0
			if p.polling() {
				t.Fatal("polling() with a zero window, want false")
			}
		})
	}
}

func TestPolicyBatch(t *testing.T) {
	const window = 50 * sim.Microsecond
	cases := []struct {
		name string
		adds int
		want []int        // member counts of the flushes, in order
		last sim.Duration // virtual time of the last flush
	}{
		{"one member flushes once at the deadline", 1, []int{1}, window},
		{"a partial batch flushes once at the deadline", CoalesceBatch - 1, []int{CoalesceBatch - 1}, window},
		{"the CoalesceBatch-th member flushes at once and disarms the timer", CoalesceBatch, []int{CoalesceBatch}, 0},
		{"a member past a full batch arms a fresh deadline", CoalesceBatch + 1, []int{CoalesceBatch, 1}, window},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			t.Cleanup(env.Close)
			p := policy{mode: Interrupts, coalesce: window}
			var got []int
			var last sim.Time
			flush := func() {
				got = append(got, p.take())
				last = env.Now()
			}
			for i := 0; i < c.adds; i++ {
				p.batch(env, flush)
			}
			env.Run()
			if !slices.Equal(got, c.want) {
				t.Fatalf("flushes %v, want %v", got, c.want)
			}
			if last != sim.Time(c.last) {
				t.Fatalf("last flush at %v, want %v", last, sim.Time(c.last))
			}
		})
	}
}
