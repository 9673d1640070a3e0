package load

import (
	"reflect"
	"testing"

	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// newTestKernel boots a kernel over EPT-backed RAM, with the sink device
// registered locally (no CVD in the loop — these tests cover the harness
// itself; the CVD path is exercised by internal/bench and internal/faults).
func newTestKernel(t testing.TB, ram uint64) (*kernel.Kernel, *Sink) {
	t.Helper()
	env := sim.NewEnv()
	phys := mem.NewPhysMem()
	alloc := phys.NewAllocator("ram", 0x1000_0000, ram)
	base, err := alloc.AllocPages(int(ram / mem.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	ept := mem.NewEPT()
	if err := ept.MapRange(0, base, int(ram/mem.PageSize), mem.PermRW); err != nil {
		t.Fatal(err)
	}
	space := &mem.GuestSpace{Phys: phys, EPT: ept}
	k := kernel.New("loadvm", kernel.Linux, env, space, ram)
	sink := NewSink(env, 2*sim.Microsecond, 1*sim.Microsecond)
	k.RegisterDevice(SinkPath, sink, sink)
	return k, sink
}

func testProfile(kind Arrival, seed int64) Profile {
	return Profile{
		Path: SinkPath,
		Classes: []Class{
			{Name: "rt", QoS: 0, Size: 256, Weight: 1},
			{Name: "bulk", QoS: 2, Size: 2048, Weight: 3},
		},
		Arrival:  kind,
		Rate:     200_000, // near the sink's ~2.4 µs mixed service time
		Clients:  40,
		Duration: 5 * sim.Millisecond,
		Seed:     seed,
	}
}

func runProfile(t *testing.T, p Profile) (*Result, *Sink) {
	t.Helper()
	k, sink := newTestKernel(t, 32<<20)
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(k); err != nil {
		t.Fatal(err)
	}
	k.Env.Run()
	if !g.Done() {
		t.Fatal("clients did not drain")
	}
	return g.Result(), sink
}

func TestOpenLoopAccounting(t *testing.T) {
	for _, kind := range []Arrival{Poisson, Bursty} {
		res, sink := runProfile(t, testProfile(kind, 7))
		if res.Offered == 0 {
			t.Fatalf("%v: no arrivals generated", kind)
		}
		var issued uint64
		for _, cs := range res.Classes {
			issued += cs.Issued
			if got := cs.OK + cs.Throttled + cs.Rejected + cs.Errors; got != cs.Issued {
				t.Errorf("%v class %s: outcomes %d != issued %d", kind, cs.Class.Name, got, cs.Issued)
			}
			if cs.Lat.Count != cs.OK {
				t.Errorf("%v class %s: %d latency samples for %d OK", kind, cs.Class.Name, cs.Lat.Count, cs.OK)
			}
		}
		if issued != res.Offered {
			t.Errorf("%v: issued %d != offered %d", kind, issued, res.Offered)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: violations: %v", kind, res.Violations)
		}
		if sink.Ops != res.OK() {
			t.Errorf("%v: sink served %d, harness counted %d OK", kind, sink.Ops, res.OK())
		}
		// No admission control and no ring in this rig: nothing sheds.
		if res.Dropped() != 0 {
			t.Errorf("%v: unexpected drops: %d", kind, res.Dropped())
		}
	}
}

// The class mix follows the weights (1:3 here) to within a loose tolerance.
func TestClassMix(t *testing.T) {
	res, _ := runProfile(t, testProfile(Poisson, 11))
	rt, bulk := res.Classes[0].Issued, res.Classes[1].Issued
	frac := float64(rt) / float64(rt+bulk)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("rt fraction %.2f, want ~0.25 (rt=%d bulk=%d)", frac, rt, bulk)
	}
}

// Same profile, same seed: byte-identical results — the property every
// downstream gate (bench determinism, stress replay) rests on.
func TestGeneratorDeterministic(t *testing.T) {
	for _, kind := range []Arrival{Poisson, Bursty} {
		a, _ := runProfile(t, testProfile(kind, 3))
		b, _ := runProfile(t, testProfile(kind, 3))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two same-seed runs differ", kind)
		}
		c, _ := runProfile(t, testProfile(kind, 4))
		if reflect.DeepEqual(a.Classes, c.Classes) {
			t.Errorf("%v: different seeds produced identical runs", kind)
		}
	}
}

// Overload stretches the tail: at 2x the sink's capacity the p99 measured
// from scheduled arrival time must far exceed the unloaded service time,
// and the serial unit must actually have queued.
func TestOverloadBuildsQueue(t *testing.T) {
	p := testProfile(Poisson, 5)
	p.Rate = 800_000 // ~2x capacity for the mixed service time
	res, sink := runProfile(t, p)
	if sink.Busiest == 0 {
		t.Fatal("overload never queued at the sink")
	}
	p99 := res.Classes[1].Lat.Quantile(0.99)
	if p99 < 100*sim.Microsecond {
		t.Errorf("overload p99 = %v, want growing queueing delay", p99)
	}
}
