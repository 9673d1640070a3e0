package perf

import (
	"testing"

	"paradice/internal/sim"
	"paradice/internal/trace"
)

func TestCopyCost(t *testing.T) {
	// One page-spanning 4-byte copy: a walk plus a sliver of bandwidth.
	if got := Copy(4, 1); got < CostCopyPerPage || got > CostCopyPerPage+10 {
		t.Fatalf("Copy(4,1) = %v", got)
	}
	// A 1 MiB copy: bandwidth term ≈ 300µs, walks ≈ 77µs.
	got := Copy(1<<20, 256)
	want := 256*CostCopyPerPage + 1024*CostCopyPerKB
	if got != want {
		t.Fatalf("Copy(1MiB,256) = %v, want %v", got, want)
	}
}

// Without a tracer, Spend still charges, and only in process context.
func TestChargeOnlyInProcessContext(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	// In callback context Spend is a no-op.
	env.After(0, func() { Spend(env, "vm", trace.LayerHV, "cb", 100*sim.Microsecond) })
	env.Run()
	if env.Now() != 0 {
		t.Fatalf("callback Spend advanced the clock to %v", env.Now())
	}
	// In process context it advances simulated time.
	var end sim.Time
	env.RunFunc("p", func(p *sim.Proc) {
		Spend(env, "vm", trace.LayerHV, "work", 100*sim.Microsecond)
		end = p.Now()
	})
	if end != sim.Time(100*sim.Microsecond) {
		t.Fatalf("process Spend ended at %v", end)
	}
}

// Under a tracer, Spend records exactly the charged interval, under the
// request the calling process serves; in callback context it does neither.
func TestSpendRecordsTheCharge(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	tr := trace.New()
	trace.Install(env, tr)
	env.After(0, func() { Spend(env, "vm", trace.LayerHV, "cb", 100*sim.Microsecond) })
	env.Run()
	env.RunFunc("p", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		p.SetRID(7)
		Spend(env, "vm", trace.LayerHV, "work", 2*sim.Microsecond)
	})
	ev := tr.Events()
	want := trace.Event{Kind: trace.KindSpan, RID: 7, VM: "vm", Layer: trace.LayerHV, Name: "work",
		Start: sim.Time(sim.Microsecond), End: sim.Time(3 * sim.Microsecond)}
	if len(ev) != 1 || ev[0] != want || env.Now() != want.End {
		t.Fatalf("events %+v at %v, want only %+v", ev, env.Now(), want)
	}
}

// The no-op round-trip budget of §6.1.1 must hold arithmetically: two
// inter-VM interrupts dominate the interrupt-mode latency, and the polled
// path is a couple of microseconds.
func TestNoopBudgets(t *testing.T) {
	intRT := CostSyscall + CostPost + 2*CostInterVMIRQ + CostComplete + CostPost + CostComplete
	if intRT < 33*sim.Microsecond || intRT > 37*sim.Microsecond {
		t.Fatalf("interrupt no-op budget = %v, want ~35µs", intRT)
	}
	pollRT := CostSyscall + CostPost + 2*CostPollCross + CostComplete + CostPost + CostComplete
	if pollRT > 4*sim.Microsecond {
		t.Fatalf("polled no-op budget = %v, want ~2µs", pollRT)
	}
}
