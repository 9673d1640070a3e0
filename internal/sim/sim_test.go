package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("new env at t=%v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var end Time
	e.RunFunc("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(7 * Microsecond)
		end = p.Now()
	})
	if end != Time(12*Microsecond) {
		t.Fatalf("end = %v, want 12µs", end)
	}
}

func TestCallbackOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.After(3*Microsecond, func() { order = append(order, 3) })
	e.After(1*Microsecond, func() { order = append(order, 1) })
	e.After(2*Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time callbacks ran out of order: %v", order)
		}
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEnv()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		trace = append(trace, "a1")
		p.Sleep(2 * Microsecond)
		trace = append(trace, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		trace = append(trace, "b2")
		p.Sleep(2 * Microsecond)
		trace = append(trace, "b4")
	})
	e.Run()
	want := []string{"a1", "b2", "a3", "b4"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEventWakesWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("ready")
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("trigger", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		ev.Trigger()
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, tm := range woke {
		if tm != Time(10*Microsecond) {
			t.Fatalf("waiter woke at %v, want 10µs", tm)
		}
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("done")
	ev.Trigger()
	var at Time = -1
	e.RunFunc("late", func(p *Proc) {
		p.Wait(ev)
		at = p.Now()
	})
	if at != 0 {
		t.Fatalf("late waiter resumed at %v, want 0", at)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("never")
	var fired bool
	var at Time
	e.RunFunc("w", func(p *Proc) {
		fired = p.WaitTimeout(ev, 200*Microsecond)
		at = p.Now()
	})
	if fired {
		t.Fatal("WaitTimeout reported fired for an event that never fired")
	}
	if at != Time(200*Microsecond) {
		t.Fatalf("timed out at %v, want 200µs", at)
	}
}

func TestWaitTimeoutEventWins(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("soon")
	var fired bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(ev, 200*Microsecond)
		at = p.Now()
	})
	e.After(50*Microsecond, ev.Trigger)
	e.Run()
	if !fired {
		t.Fatal("WaitTimeout missed the event")
	}
	if at != Time(50*Microsecond) {
		t.Fatalf("woke at %v, want 50µs", at)
	}
}

// A stale timeout resume must not corrupt a process that has since moved on
// to waiting on something else. This is the regression test for the
// generation-counter logic.
func TestStaleTimeoutResumeIsIgnored(t *testing.T) {
	e := NewEnv()
	ev1 := e.NewEvent("first")
	ev2 := e.NewEvent("second")
	var stages []Time
	e.Spawn("w", func(p *Proc) {
		if !p.WaitTimeout(ev1, 100*Microsecond) {
			t.Error("ev1 should fire before its timeout")
		}
		stages = append(stages, p.Now())
		p.Wait(ev2) // stale resume for the 100µs timeout must not end this wait
		stages = append(stages, p.Now())
	})
	e.After(10*Microsecond, ev1.Trigger)
	e.After(500*Microsecond, ev2.Trigger)
	e.Run()
	if len(stages) != 2 {
		t.Fatalf("stages = %v, want 2 entries", stages)
	}
	if stages[0] != Time(10*Microsecond) || stages[1] != Time(500*Microsecond) {
		t.Fatalf("stages = %v, want [10µs 500µs]", stages)
	}
}

func TestEventResetReuse(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("tick")
	var wakes []Time
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(ev)
			ev.Reset()
			wakes = append(wakes, p.Now())
		}
	})
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			ev.Trigger()
		}
	})
	e.Run()
	if len(wakes) != 3 {
		t.Fatalf("wakes = %v, want 3 wakes", wakes)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("gpu", 1)
	var order []string
	worker := func(name string, start, hold Duration) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		})
	}
	worker("a", 0, 30*Microsecond)
	worker("b", 1*Microsecond, 10*Microsecond)
	worker("c", 2*Microsecond, 10*Microsecond)
	e.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("duo", 2)
	var maxInUse int
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(10 * Microsecond)
			r.Release()
		})
	}
	e.Run()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
}

func TestDeadlockedReportsBlockedProc(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	e.Run()
	d := e.Deadlocked()
	if len(d) != 1 || d[0] != "stuck" {
		t.Fatalf("Deadlocked() = %v, want [stuck]", d)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEnv()
	var ran []Duration
	e.After(10*Microsecond, func() { ran = append(ran, 10*Microsecond) })
	e.After(30*Microsecond, func() { ran = append(ran, 30*Microsecond) })
	e.RunUntil(Time(20 * Microsecond))
	if len(ran) != 1 {
		t.Fatalf("ran = %v, want only the 10µs callback", ran)
	}
	if e.Now() != Time(20*Microsecond) {
		t.Fatalf("now = %v, want 20µs", e.Now())
	}
	e.Run()
	if len(ran) != 2 {
		t.Fatalf("second Run did not pick up the remaining callback: %v", ran)
	}
}

// Property: for any list of non-negative delays, callbacks fire in
// nondecreasing time order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.After(Duration(d)*Nanosecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sleeping a sequence of delays lands exactly on their sum.
func TestPropertySleepSum(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var want Time
		for _, d := range delays {
			want = want.Add(Duration(d))
		}
		var got Time
		e.RunFunc("s", func(p *Proc) {
			for _, d := range delays {
				p.Sleep(Duration(d))
			}
			got = p.Now()
		})
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{35 * Microsecond, "35.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestNegativeSleepClampsToZero(t *testing.T) {
	e := NewEnv()
	e.RunFunc("n", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep moved clock to %v", p.Now())
		}
	})
}

// A panicking process must surface on the Run caller's goroutine as a
// *ProcPanic — recoverable by a harness — not crash an unrelated goroutine.
func TestProcPanicTrapsToRunCaller(t *testing.T) {
	e := NewEnv()
	e.Spawn("healthy", func(p *Proc) { p.Sleep(Microsecond) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		panic("boom")
	})
	var got *ProcPanic
	func() {
		defer func() {
			r := recover()
			pp, ok := r.(*ProcPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
			}
			got = pp
		}()
		e.Run()
	}()
	if got.Proc != "bomb" || got.Value != "boom" || len(got.Stack) == 0 {
		t.Fatalf("trap = {Proc:%q Value:%v stack %d bytes}", got.Proc, got.Value, len(got.Stack))
	}
}

// mixedWorkload drives a deterministic mix of timers, same-instant ties,
// WaitTimeout races that leave stale resumes behind, cross-proc event wake-ups
// and callbacks scheduled from process context, and returns the execution log.
// obs, when non-nil, observes the scheduling decisions.
func mixedWorkload(obs SchedObserver) []string {
	e := NewEnv()
	e.Observer = obs
	var log []string
	ev := e.NewEvent("mixed")
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			rng := rand.New(rand.NewSource(int64(42 + i)))
			for step := 0; step < 40; step++ {
				switch rng.Intn(4) {
				case 0:
					p.Sleep(Duration(rng.Intn(5)) * Microsecond)
				case 1:
					// Same-instant tie with sibling workers.
					p.Yield()
				case 2:
					if !p.WaitTimeout(ev, Duration(1+rng.Intn(3))*Microsecond) {
						log = append(log, fmt.Sprintf("t=%v w%d timeout", p.Now(), i))
					}
				case 3:
					ev.Trigger()
					ev.Reset()
				}
				log = append(log, fmt.Sprintf("t=%v w%d step%d", p.Now(), i, step))
				p.Env().After(Duration(rng.Intn(3))*Microsecond, func() {
					log = append(log, fmt.Sprintf("t=%v cb from w%d", e.Now(), i))
				})
			}
		})
	}
	e.Run()
	return log
}

// schedLog records scheduling decisions compactly: "@<µs>" when the clock
// moves, then "c" per callback or the last character of the resumed
// process's name.
type schedLog struct {
	b    strings.Builder
	last Time
}

func (l *schedLog) at(t Time) {
	if t != l.last {
		fmt.Fprintf(&l.b, "@%d", int64(t)/int64(Microsecond))
		l.last = t
	}
}

func (l *schedLog) SchedCallback(at Time) { l.at(at); l.b.WriteByte('c') }

func (l *schedLog) SchedResume(at Time, proc string) { l.at(at); l.b.WriteByte(proc[len(proc)-1]) }

// mixedSchedOrder is mixedWorkload's scheduling order, recorded from the
// channel ping-pong scheduler the token hand-off replaced: handing the token
// straight from process to process must not reorder a single decision.
const mixedSchedOrder = "01230230230c3cc3@1cccccc@2cc3@3003c33c3c3c@412ccc@5cc31cccc31c@60cc230c2@7ccc2" +
	"@81ccc0cc00c@93c2ccccc03cc2c0c20c2c2@10ccccccc0c@111ccc2cc01cc22@12cccc2cc@133ccc23c2@14c3cc" +
	"@1501c23cc123c12c2c@160cccc0c32c0@17cccc1cccc11@18cc@1930ccc1cc3ccc@202ccc03203c0@21cccc" +
	"@22ccccccc3c@23120333@24ccccc@25c2c10c1ccc@26ccc@27c11@28cc1@292c1cc1c@31c@32111cc11c@332cc" +
	"@34cc@35c@361111@37ccc1c@38cc1@40c"

// TestMixedWorkloadDeterminism runs the mixed workload twice and requires
// identical logs — the property every stress sweep leans on — and the
// recorded scheduling order.
func TestMixedWorkloadDeterminism(t *testing.T) {
	var obs schedLog
	a := mixedWorkload(&obs)
	b := mixedWorkload(nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mixed workload not deterministic across runs")
	}
	if got := obs.b.String(); got != mixedSchedOrder {
		t.Fatalf("scheduling order changed:\n got %s\nwant %s", got, mixedSchedOrder)
	}
}

// runPanic runs fn and returns what it panicked with, or nil.
func runPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// A callback dispatched on a process goroutine (here: the one a blocking
// Sleep hands the token off from) runs with no current process, and its
// panic surfaces from Run with its raw value. The parked process survives:
// a later Run resumes it.
func TestCallbackPanicOnProcGoroutineReraisedFromRun(t *testing.T) {
	e := NewEnv()
	var during *Proc
	var done Time = -1
	e.Spawn("a", func(p *Proc) {
		p.Env().After(0, func() {
			during = e.CurrentProc()
			panic("callback boom")
		})
		p.Sleep(Microsecond)
		done = p.Now()
	})
	if r := runPanic(e.Run); r != "callback boom" {
		t.Fatalf("Run panicked with %v (%T), want the raw callback value", r, r)
	}
	if during != nil {
		t.Fatalf("CurrentProc() = %s inside the callback, want nil", during.Name())
	}
	if e.CurrentProc() != nil {
		t.Fatal("CurrentProc() is set after the panic reached Run")
	}
	if st := string(e.FaultStack()); !strings.Contains(st, "ReraisedFromRun.func1.1(") {
		t.Fatalf("FaultStack does not show the panicking callback:\n%s", st)
	}
	e.Run()
	if done != Time(Microsecond) {
		t.Fatalf("parked process finished at %v after the second Run, want 1µs", done)
	}
	if e.FaultStack() != nil {
		t.Fatal("FaultStack still set after a Run that did not panic")
	}
}

// OnProcPanic returning true consumes a process panic: the handler sees no
// current process and the run carries on with the other processes.
func TestOnProcPanicConsumedRunContinues(t *testing.T) {
	e := NewEnv()
	var caught []string
	e.OnProcPanic = func(pp *ProcPanic) bool {
		if e.CurrentProc() != nil {
			t.Errorf("CurrentProc() = %s in OnProcPanic, want nil", e.CurrentProc().Name())
		}
		caught = append(caught, fmt.Sprintf("%s:%v", pp.Proc, pp.Value))
		return true
	}
	var end Time
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("oops")
	})
	e.Spawn("survivor", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		end = p.Now()
	})
	e.Run()
	if len(caught) != 1 || caught[0] != "bomb:oops" {
		t.Fatalf("OnProcPanic saw %v, want [bomb:oops]", caught)
	}
	if end != Time(5*Microsecond) {
		t.Fatalf("survivor finished at %v, want 5µs", end)
	}
	if e.Deadlocked() != nil {
		t.Fatalf("deadlocked: %v", e.Deadlocked())
	}
}

// Blocking on a process that does not hold the token is a clear panic, both
// from another process's body and from outside Run.
func TestBlockWhileNotCurrentPanics(t *testing.T) {
	e := NewEnv()
	idle := e.Spawn("idle", func(p *Proc) {})
	e.Spawn("thief", func(p *Proc) { idle.Sleep(Microsecond) })
	r := runPanic(e.Run)
	pp, ok := r.(*ProcPanic)
	if !ok || pp.Proc != "thief" || !strings.Contains(fmt.Sprint(pp.Value), "idle blocking while not current") {
		t.Fatalf("Run panicked with %v, want thief's ProcPanic naming idle", r)
	}
	r = runPanic(func() { idle.Sleep(Microsecond) })
	if !strings.Contains(fmt.Sprint(r), "idle blocking while not current") {
		t.Fatalf("Sleep outside Run panicked with %v", r)
	}
}

// waitGoroutines waits briefly for the goroutine count to fall to n: a
// process goroutine passes the token on just before it exits.
func waitGoroutines(n int) int {
	for i := 0; i < 1000 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// Close unwinds every process still parked — blocked on an event that never
// fires, queued on a resource, or never started — running their deferred
// calls, and lets each goroutine exit. A blocking call inside the unwind
// panics at once instead of dispatching.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	never := e.NewEvent("never")
	r := e.NewResource("r", 1)
	var unwound []string
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		defer func() {
			r.Release()
			unwound = append(unwound, "holder")
			p.Sleep(Microsecond) // must panic, not run the calendar
			unwound = append(unwound, "holder slept")
		}()
		p.Wait(never)
	})
	e.Spawn("queued", func(p *Proc) {
		defer func() { unwound = append(unwound, "queued") }()
		r.Acquire(p)
	})
	e.Spawn("finished", func(p *Proc) {})
	e.Run()
	e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	if got := len(e.Deadlocked()); got != 2 {
		t.Fatalf("Deadlocked() = %v, want holder and queued", e.Deadlocked())
	}
	e.Close()
	e.Close()
	if want := []string{"holder", "queued"}; !reflect.DeepEqual(unwound, want) {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
	if got := waitGoroutines(base); got > base {
		t.Fatalf("%d goroutines left after Close, want %d", got, base)
	}
	if e.Deadlocked() != nil {
		t.Fatalf("Deadlocked() after Close = %v", e.Deadlocked())
	}
}

// After Close, Run, Spawn and blocking calls panic with a clear message.
func TestUseAfterClosePanics(t *testing.T) {
	e := NewEnv()
	var p0 *Proc
	e.RunFunc("p0", func(p *Proc) { p0 = p })
	e.Close()
	for name, fn := range map[string]func(){
		"Run":   e.Run,
		"Spawn": func() { e.Spawn("late", func(*Proc) {}) },
		"Sleep": func() { p0.Sleep(Microsecond) },
	} {
		if r := runPanic(fn); !strings.Contains(fmt.Sprint(r), "after Close") {
			t.Errorf("%s after Close panicked with %v, want a message naming Close", name, r)
		}
	}
}

// TestManyProcsDrain runs a fleet-sized number of processes with interleaved
// timers, checking the clock advances monotonically and every process drains.
func TestManyProcsDrain(t *testing.T) {
	e := NewEnv()
	const procs = 128
	var last Time
	var ran int
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn(fmt.Sprintf("vm%d", i), func(p *Proc) {
			for s := 0; s < 20; s++ {
				p.Sleep(Duration(1+(i*7+s*3)%11) * Microsecond)
				if p.Now() < last {
					t.Errorf("clock went backwards: %v after %v", p.Now(), last)
				}
				last = p.Now()
				ran++
			}
		})
	}
	e.Run()
	if ran != procs*20 {
		t.Fatalf("ran %d steps, want %d", ran, procs*20)
	}
	if dl := e.Deadlocked(); dl != nil {
		t.Fatalf("deadlocked procs: %v", dl)
	}
}
