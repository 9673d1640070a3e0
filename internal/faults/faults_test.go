package faults

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Two plans with the same seed and the same consultation order make
// identical decisions — the property seed reproduction rests on.
func TestPlanDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		p := New(seed).Probability("a", 0.5).Probability("b", 0.1)
		var got []bool
		for i := 0; i < 200; i++ {
			got = append(got, p.decide("a") != nil, p.decide("b") != nil)
		}
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical seeds", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical decision streams")
	}
}

func TestScriptedFailAt(t *testing.T) {
	p := New(1).FailAtWith("x", 3, 77)
	for i := 1; i <= 5; i++ {
		d := p.decide("x")
		if (d != nil) != (i == 3) {
			t.Fatalf("hit %d: fired=%v", i, d != nil)
		}
		if i == 3 && (d.Hit != 3 || d.Arg != 77) {
			t.Fatalf("hit 3 decision = %+v", d)
		}
	}
	if p.Hits("x") != 5 || p.Injected("x") != 1 {
		t.Fatalf("hits=%d injected=%d, want 5/1", p.Hits("x"), p.Injected("x"))
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	p := New(7)
	for i := 0; i < 1000; i++ {
		if p.decide("never") != nil {
			t.Fatal("unarmed point fired")
		}
	}
}

func TestInstallPointUninstall(t *testing.T) {
	env := sim.NewEnv()
	if Point(env, "a") != nil {
		t.Fatal("no plan installed, yet Point fired")
	}
	if Point(nil, "a") != nil {
		t.Fatal("nil env must be a no-op")
	}
	p := New(3).FailAt("a", 1)
	Install(env, p)
	if Installed(env) != p {
		t.Fatal("Installed did not return the plan")
	}
	if Point(env, "a") == nil {
		t.Fatal("scripted first hit did not fire through Point")
	}
	Uninstall(env)
	if Point(env, "a") != nil || Installed(env) != nil {
		t.Fatal("plan survived Uninstall")
	}
}

// An environment dropped with a tracer and a plan still installed is
// collected: only the Env holds them. The finalizers sit on the plan and on
// the tracer's metrics registry, which only the Env reaches; the Env itself
// cannot carry one, because its tracer points back at it and Go does not
// finalize objects in a cycle.
func TestInstalledEnvIsCollected(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(2)
	func() {
		env := sim.NewEnv()
		tr, p := trace.New(), New(1).FailAt("a", 1)
		trace.Install(env, tr)
		Install(env, p)
		runtime.SetFinalizer(p, func(*Plan) { wg.Done() })
		runtime.SetFinalizer(tr.Metrics(), func(*trace.Registry) { wg.Done() })
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an Env dropped without Uninstall kept its tracer or plan alive")
}

// Environments on parallel goroutines each see only their own tracer and
// plan, and (under -race) share no state doing so.
func TestParallelEnvsSeeOwnTracerAndPlan(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := sim.NewEnv()
			tr, p := trace.New(), New(int64(g)).FailAt(fmt.Sprint("p", g), 1)
			trace.Install(env, tr)
			Install(env, p)
			for i := 0; i < 1000; i++ {
				if trace.Get(env) != tr || Installed(env) != p {
					errs <- fmt.Errorf("env %d sees another tracer or plan", g)
					return
				}
				for h := 0; h < 4; h++ {
					fired := Point(env, fmt.Sprint("p", h)) != nil
					if want := h == g && i == 0; fired != want {
						errs <- fmt.Errorf("env %d: point p%d on pass %d fired=%v", g, h, i, fired)
						return
					}
				}
			}
			if got := p.Hits(fmt.Sprint("p", g)); got != 1000 {
				errs <- fmt.Errorf("env %d: own point consulted %d times, want 1000", g, got)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	p := New(99).Probability("p", 0.3)
	fired := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if p.decide("p") != nil {
			fired++
		}
	}
	if fired < n/5 || fired > n/2 {
		t.Fatalf("prob 0.3 fired %d/%d times", fired, n)
	}
}
