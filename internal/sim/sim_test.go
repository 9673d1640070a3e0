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
	ev := e.NewEvent()
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
	ev := e.NewEvent()
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
	ev := e.NewEvent()
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
	ev := e.NewEvent()
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
	ev1 := e.NewEvent()
	ev2 := e.NewEvent()
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
	ev := e.NewEvent()
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
	ev := e.NewEvent()
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
	ev := e.NewEvent()
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
					p.Sleep(0)
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
// channel ping-pong scheduler that preceded both the goroutine hand-off and
// the coroutines: resuming processes as coroutines must not reorder a single
// decision.
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

// mixedTimeouts drives every way the calendar files a WaitTimeout deadline
// and returns each wait's "<time> <name> <fired>":
//   - four spinners each wait 200µs on their own response event, which a
//     device process mostly triggers a few µs later and sometimes lets time
//     out;
//   - a 1ms timeout filed behind queued 200µs deadlines, so the 200µs
//     deadlines filed after it, and a 50µs one, sort before the queue's tail;
//   - WaitTimeout(ev, 0), with nothing due and behind a same-instant trigger;
//   - a trigger at exactly a pending deadline's instant, scheduled before the
//     wait (the event wins) and after it (the deadline wins);
//   - a process that finishes while its superseded deadline is still queued.
func mixedTimeouts() []string {
	e := NewEnv()
	defer e.Close()
	var log []string
	note := func(p *Proc, fired bool) {
		log = append(log, fmt.Sprintf("%v %s %v", p.Now(), p.Name(), fired))
	}
	resp := make([]*Event, 4)
	for i := range resp {
		resp[i] = e.NewEvent()
		e.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for round := 0; round < 6; round++ {
				note(p, p.WaitTimeout(resp[i], 200*Microsecond))
				resp[i].Reset()
				p.Sleep(Duration(i) * Microsecond)
			}
		})
	}
	e.Spawn("device", func(p *Proc) {
		for k, gap := range []Duration{1, 2, 1, 3, 250, 1, 1, 2, 5, 1, 300, 2, 1, 1, 4, 1, 2, 1, 1, 3} {
			p.Sleep(gap * Microsecond)
			resp[k%len(resp)].Trigger()
		}
	})
	quit := e.NewEvent()
	e.Spawn("quit", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		e.After(4*Microsecond, quit.Trigger)
		note(p, p.WaitTimeout(quit, 200*Microsecond))
	})
	edge := e.NewEvent()
	e.Spawn("edge", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		e.After(200*Microsecond, edge.Trigger)
		note(p, p.WaitTimeout(edge, 200*Microsecond))
		edge.Reset()
		e.After(0, func() { e.After(200*Microsecond, edge.Trigger) })
		note(p, p.WaitTimeout(edge, 200*Microsecond))
	})
	never := e.NewEvent()
	e.Spawn("long", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		note(p, p.WaitTimeout(never, Millisecond))
		note(p, p.WaitTimeout(never, 200*Microsecond))
	})
	e.Spawn("short", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		note(p, p.WaitTimeout(never, 50*Microsecond))
	})
	zero := e.NewEvent()
	e.Spawn("zero", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		note(p, p.WaitTimeout(zero, 0))
		e.At(p.Now(), zero.Trigger)
		note(p, p.WaitTimeout(zero, 0))
	})
	e.Run()
	return log
}

// mixedTimeoutsLog is mixedTimeouts' log, recorded when every deadline still
// went into the heap: filing deadlines in the deadline queue must not move a
// single wake-up or change which of a deadline and its event wins.
var mixedTimeoutsLog = []string{
	"1.000µs spin0 true",
	"3.000µs spin1 true",
	"4.000µs spin2 true",
	"7.000µs quit true",
	"7.000µs spin3 true",
	"30.000µs zero false",
	"30.000µs zero true",
	"70.000µs short false",
	"201.000µs spin0 false",
	"204.000µs spin1 false",
	"205.000µs edge true",
	"206.000µs spin2 false",
	"210.000µs spin3 false",
	"257.000µs spin0 true",
	"258.000µs spin1 true",
	"259.000µs spin2 true",
	"261.000µs spin3 true",
	"266.000µs spin0 true",
	"267.000µs spin1 true",
	"405.000µs edge false",
	"461.000µs spin2 false",
	"464.000µs spin3 false",
	"466.000µs spin0 false",
	"468.000µs spin1 false",
	"567.000µs spin2 true",
	"569.000µs spin3 true",
	"570.000µs spin0 true",
	"571.000µs spin1 true",
	"575.000µs spin2 true",
	"576.000µs spin3 true",
	"1.010ms long false",
	"1.210ms long false",
}

func TestMixedTimeoutsResumeLog(t *testing.T) {
	if got := mixedTimeouts(); !reflect.DeepEqual(got, mixedTimeoutsLog) {
		t.Fatalf("WaitTimeout log changed:\n got %q\nwant %q", got, mixedTimeoutsLog)
	}
}

// runPanic runs fn and returns what it panicked with, or nil.
func runPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// A callback dispatched on a process coroutine (here: the one a blocking
// Sleep runs the calendar loop on) runs with no current process, and its
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

// Blocking on a process that is not the one running is a clear panic, both
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

// A blocking call made on a process other than the one running panics
// before it touches any state: with the panic consumed, the victim still
// wakes when its own event fires, and no queue holds it twice.
func TestBlockOnWrongProcLeavesNoWakeup(t *testing.T) {
	for name, stray := range map[string]func(victim *Proc, ev *Event, r *Resource){
		"Sleep":       func(v *Proc, _ *Event, _ *Resource) { v.Sleep(Microsecond) },
		"Sleep(0)":    func(v *Proc, _ *Event, _ *Resource) { v.Sleep(0) },
		"Wait":        func(v *Proc, ev *Event, _ *Resource) { v.Wait(ev) },
		"WaitTimeout": func(v *Proc, ev *Event, _ *Resource) { v.WaitTimeout(ev, Microsecond) },
		"Acquire":     func(v *Proc, _ *Event, r *Resource) { r.Acquire(v) },
	} {
		e := NewEnv()
		var caught []string
		e.OnProcPanic = func(pp *ProcPanic) bool {
			caught = append(caught, fmt.Sprint(pp.Value))
			return true
		}
		ready, other := e.NewEvent(), e.NewEvent()
		r := e.NewResource("r", 1)
		var woke Time = -1
		victim := e.Spawn("victim", func(p *Proc) {
			p.Wait(ready)
			woke = p.Now()
		})
		e.Spawn("holder", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(2 * Microsecond)
			other.Trigger()
			r.Release()
		})
		e.Spawn("thief", func(p *Proc) { stray(victim, other, r) })
		e.After(10*Microsecond, ready.Trigger)
		e.Run()
		if len(caught) != 1 || !strings.Contains(caught[0], "victim blocking while not current") {
			t.Errorf("%s: OnProcPanic saw %q, want thief's not-current panic", name, caught)
		}
		if woke != Time(10*Microsecond) {
			t.Errorf("%s: victim woke at %v, want 10µs", name, woke)
		}
		if r.InUse() != 0 || r.QueueLen() != 0 {
			t.Errorf("%s: resource left with %d in use, %d queued", name, r.InUse(), r.QueueLen())
		}
		e.Close()
	}
}

// Close unwinds every process still parked — blocked on an event that never
// fires, queued on a resource, or never started — running their deferred
// calls, and each coroutine has exited by the time Close returns. A blocking call inside the unwind
// panics at once instead of dispatching.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	never := e.NewEvent()
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
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines left after Close, want %d", got, base)
	}
	if e.Deadlocked() != nil {
		t.Fatalf("Deadlocked() after Close = %v", e.Deadlocked())
	}
}

// Close has ended every coroutine by the time it returns, cycle after cycle:
// parked, never-started and finished processes alike leave no goroutine behind.
func TestCloseCyclesLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		e := NewEnv()
		never := e.NewEvent()
		e.Spawn("parked", func(p *Proc) { p.Wait(never) })
		e.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
		e.Run()
		e.Spawn("unstarted", func(p *Proc) {})
		e.Spawn("fresh", func(p *Proc) {})
		e.Close()
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("cycle %d: %d goroutines right after Close, want at most %d", i, got, base)
		}
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

// The calendar pops items in (at, seq) order under any interleaving of
// pushes and pops, including many items due at the same instant and due-now
// pushes queued behind heap items due at that instant with a lower seq.
func TestCalendarPopsInOrder(t *testing.T) {
	type entry struct {
		it  item
		due bool // pushed at the instant it is due
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c calendar
		var seq uint64
		var now Time // the time of the last pop, as Env.next sets it
		var pending []entry
		var last item
		popped, behind := 0, 0
		for op := 0; op < 2000; op++ {
			top, due := c.top()
			if top == nil || rng.Intn(3) > 0 {
				// Never earlier than now, as Env.schedule enforces.
				it := item{at: now + Time(rng.Intn(8)), seq: seq}
				seq++
				if it.at == now && len(c.heap) > 0 && c.heap[0].at == now {
					behind++
				}
				c.push(it, now)
				pending = append(pending, entry{it, it.at == now})
				continue
			}
			earliest := 0
			for i := range pending {
				if pending[i].it.before(&pending[earliest].it) {
					earliest = i
				}
			}
			if e := pending[earliest]; e.it.at != top.at || e.it.seq != top.seq || e.due != due {
				t.Fatalf("seed %d: top %+v (due-now %v) is not the earliest, %+v is", seed, *top, due, e)
			}
			pending = append(pending[:earliest], pending[earliest+1:]...)
			it := *top
			c.pop(due)
			if popped > 0 && !last.before(&it) {
				t.Fatalf("seed %d: popped %+v after %+v", seed, it, last)
			}
			last, now = it, it.at
			popped++
		}
		if behind == 0 {
			t.Fatalf("seed %d: no due-now push went behind a heap item due at the same instant", seed)
		}
	}
}

// Steady-state scheduling allocates nothing: a callback scheduled and
// dispatched, later or at the same instant, a process sleeping with nothing
// else due (the skipped Sleep) or behind a same-instant callback, a wake-up,
// a WaitTimeout woken before its deadline or timing out, and a hop to another
// process and back.
func TestSchedulingAllocatesNothing(t *testing.T) {
	e := NewEnv()
	fn := func() {}
	for _, d := range []Duration{Microsecond, 0} {
		if n := testing.AllocsPerRun(1000, func() {
			e.After(d, fn)
			e.Run()
		}); n != 0 {
			t.Errorf("After(%v) + dispatch: %v allocs, want 0", d, n)
		}
	}
	var skipped, sleeps float64
	e.RunFunc("sleeper", func(p *Proc) {
		skipped = testing.AllocsPerRun(1000, func() { p.Sleep(Microsecond) })
		sleeps = testing.AllocsPerRun(1000, func() {
			e.After(0, fn)
			p.Sleep(Microsecond)
		})
	})
	if skipped != 0 || sleeps != 0 {
		t.Errorf("skipped Sleep: %v allocs; Sleep behind a same-instant callback: %v allocs; want 0", skipped, sleeps)
	}
	ev := e.NewEvent()
	trigger := ev.Trigger
	var waits float64
	e.RunFunc("waiter", func(p *Proc) {
		waits = testing.AllocsPerRun(1000, func() {
			ev.Reset()
			e.After(Microsecond, trigger)
			p.Wait(ev)
		})
	})
	if waits != 0 {
		t.Errorf("Wait + Trigger + Reset: %v allocs, want 0", waits)
	}
	never := e.NewEvent()
	var woken, timedOut float64
	e.RunFunc("spinner", func(p *Proc) {
		spin := func() {
			ev.Reset()
			e.After(Microsecond, trigger)
			if !p.WaitTimeout(ev, 200*Microsecond) {
				t.Error("spin timed out before its event fired")
			}
		}
		// Fill the deadline queue with superseded deadlines up to its
		// steady length, about 200.
		for i := 0; i < 1000; i++ {
			spin()
		}
		woken = testing.AllocsPerRun(1000, spin)
		timedOut = testing.AllocsPerRun(1000, func() {
			if p.WaitTimeout(never, Microsecond) {
				t.Error("wait on an event that never fires reported it fired")
			}
		})
	})
	if woken != 0 || timedOut != 0 {
		t.Errorf("WaitTimeout woken before its deadline: %v allocs; timed out: %v allocs; want 0", woken, timedOut)
	}
	ping, pong := e.NewEvent(), e.NewEvent()
	e.Spawn("pong", func(p *Proc) {
		for {
			p.Wait(ping)
			ping.Reset()
			pong.Trigger()
		}
	})
	var hops float64
	e.RunFunc("ping", func(p *Proc) {
		hops = testing.AllocsPerRun(1000, func() {
			ping.Trigger()
			p.Wait(pong)
			pong.Reset()
		})
	})
	if hops != 0 {
		t.Errorf("hop to another process and back: %v allocs, want 0", hops)
	}
	e.Close()
}

// Among thousands of finished processes, Deadlocked names the blocked ones in
// spawn order and Close unwinds them.
func TestDeadlockedAmongFinishedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	never := e.NewEvent()
	var blocked, unwound []string
	block := func(name string) {
		blocked = append(blocked, name)
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			p.Wait(never)
		})
	}
	block("first")
	for i := 0; i < 10000; i++ {
		e.Spawn(fmt.Sprintf("op%d", i), func(p *Proc) { p.Sleep(Microsecond) })
		if i%2500 == 0 {
			block(fmt.Sprintf("blocked%d", i))
		}
		if i%100 == 0 {
			e.Run()
		}
	}
	block("last")
	e.Run()
	if got := e.Deadlocked(); !reflect.DeepEqual(got, blocked) {
		t.Fatalf("Deadlocked() = %v, want %v", got, blocked)
	}
	e.Close()
	if !reflect.DeepEqual(unwound, blocked) {
		t.Fatalf("Close unwound %v, want %v", unwound, blocked)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines left after Close, want %d", got, base)
	}
}

// runWithin runs e until its calendar drains, failing t if that takes longer
// than a few seconds (a scheduler that deadlocks).
func runWithin(t *testing.T, e *Env) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: the scheduler deadlocked")
	}
}

// A body that leaves through runtime.Goexit ends its coroutine, and the
// Goexit carries on down the chain of coroutines that resumed it: the
// process that handed off to it ends too, running its deferred calls, and so
// does the goroutine that called Run, so RunFunc does not return. The Env
// stays usable, and Close leaves no goroutine behind.
func TestGoexitEndsChain(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	e.RunFunc("first", func(p *Proc) {})
	var under *Proc
	returned, unwound := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		// under blocks while exit's start is due, so under's coroutine
		// resumes exit's and sits beneath it on the chain.
		under = e.Spawn("under", func(p *Proc) {
			defer func() { unwound = true }()
			p.Sleep(Microsecond)
			t.Error("under resumed after the process it handed off to called Goexit")
		})
		e.RunFunc("exit", func(p *Proc) {
			if !under.up {
				t.Error("exit was not resumed by under's coroutine")
			}
			runtime.Goexit()
		})
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("RunFunc returned normally after its process body called Goexit")
	}
	if !unwound || !under.finished {
		t.Fatalf("the process beneath the Goexit: deferred calls ran=%v, finished=%v", unwound, under.finished)
	}
	if e.Deadlocked() != nil {
		t.Fatalf("after Goexit: deadlocked %v", e.Deadlocked())
	}
	ran := false
	e.Spawn("next", func(p *Proc) {
		p.Sleep(Microsecond)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("next did not run after the Goexit")
	}
	e.Close()
	if got := goroutinesAfterExit(base); got > base {
		t.Fatalf("%d goroutines left after Close, want %d", got, base)
	}
}

// goroutinesAfterExit returns the goroutine count once it is back at base,
// or after a second. A goroutine that closed a channel from a deferred call
// during its runtime.Goexit has not exited yet when the receiver wakes.
func goroutinesAfterExit(base int) int {
	for deadline := time.Now().Add(time.Second); ; runtime.Gosched() {
		if n := runtime.NumGoroutine(); n <= base || time.Now().After(deadline) {
			return n
		}
	}
}

// upProcs counts the coroutines on the chain from the Run caller: those
// running or resuming another.
func upProcs(e *Env) int {
	n := 0
	for _, p := range e.procs {
		if !p.finished && p.up {
			n++
		}
	}
	return n
}

// Each of 256 processes wakes the next and blocks, so each coroutine resumes
// the next one directly and the chain grows 256 deep; then they wake one
// another in reverse, unwinding it, with skipped sleeps in between. The
// resumes happen at the times and in the order the calendar dictates.
func TestHandOffChainDepth(t *testing.T) {
	const n = 256
	base := runtime.NumGoroutine()
	e := NewEnv()
	var got []string
	e.Observer = resumeLog{&got}
	fwd, back := make([]*Event, n), make([]*Event, n)
	for i := range fwd {
		fwd[i], back[i] = e.NewEvent(), e.NewEvent()
	}
	depth := 0
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			if i == 0 {
				p.Sleep(Microsecond) // the others start and wait first
			} else {
				p.Wait(fwd[i])
			}
			if i < n-1 {
				fwd[i+1].Trigger()
				p.Wait(back[i])
			} else {
				depth = upProcs(e)
			}
			p.Sleep(Microsecond)
			if i > 0 {
				back[i-1].Trigger()
			}
		})
	}
	e.Run()
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("%v p%d", Time(0), i))
	}
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("%v p%d", Time(Microsecond), i))
	}
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			want = append(want, fmt.Sprintf("%v p%d", Time(n-i)*Time(Microsecond), i))
		}
		want = append(want, fmt.Sprintf("%v p%d", Time(n+1-i)*Time(Microsecond), i))
	}
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("%d resumes, want %d; from resume %d on got %v, want %v",
				len(got), len(want), i, got[min(i, len(got)):], want[min(i, len(want)):])
		}
	}
	if depth != n {
		t.Fatalf("chain %d deep at its deepest, want %d", depth, n)
	}
	if dl := e.Deadlocked(); dl != nil {
		t.Fatalf("deadlocked: %v", dl)
	}
	e.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines left after Close, want %d", got, base)
	}
}

// resumeLog records each process resume as "<time> <name>".
type resumeLog struct{ log *[]string }

func (resumeLog) SchedCallback(Time) {}

func (l resumeLog) SchedResume(at Time, proc string) {
	*l.log = append(*l.log, fmt.Sprintf("%v %s", at, proc))
}

// A panic in a process resumed by another process's coroutine, consumed by
// OnProcPanic, leaves the run going: the process beneath it on the chain
// resumes at its due time.
func TestNestedPanicConsumed(t *testing.T) {
	e := NewEnv()
	var caught []string
	e.OnProcPanic = func(pp *ProcPanic) bool {
		caught = append(caught, fmt.Sprintf("%s:%v", pp.Proc, pp.Value))
		return true
	}
	var woke, later Time = -1, -1
	under := e.Spawn("under", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	e.Spawn("bomb", func(p *Proc) {
		if !under.up {
			t.Error("bomb was not resumed by under's coroutine")
		}
		panic("oops")
	})
	e.Spawn("later", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		later = p.Now()
	})
	runWithin(t, e)
	if len(caught) != 1 || caught[0] != "bomb:oops" {
		t.Fatalf("OnProcPanic saw %v, want [bomb:oops]", caught)
	}
	if woke != Time(5*Microsecond) || later != Time(2*Microsecond) {
		t.Fatalf("under woke at %v (want 5µs), later at %v (want 2µs)", woke, later)
	}
	if e.Deadlocked() != nil {
		t.Fatalf("deadlocked %v", e.Deadlocked())
	}
	e.Close()
}

// A Sleep with nothing else due by its end returns without touching the
// calendar, yet reports the resume at the same time as one that went through
// it. A Sleep past RunUntil's limit still parks until the next Run.
func TestSkippedSleepReportsResume(t *testing.T) {
	e := NewEnv()
	var got []string
	e.Observer = resumeLog{&got}
	var skipped []bool
	e.Spawn("a", func(p *Proc) {
		for _, d := range []Duration{Microsecond, 0, 2 * Microsecond, 10 * Microsecond} {
			seq := e.seq
			p.Sleep(d)
			skipped = append(skipped, e.seq == seq)
		}
	})
	e.RunUntil(Time(5 * Microsecond))
	want := []string{"0ns a", "1.000µs a", "1.000µs a", "3.000µs a"}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(skipped, []bool{true, true, true}) {
		t.Fatalf("resumes %v, skipped %v; want %v, three skipped", got, skipped, want)
	}
	if e.Now() != Time(5*Microsecond) || e.Deadlocked() != nil {
		t.Fatalf("after RunUntil: now %v, deadlocked %v; want 5µs and a parked with a pending resume", e.Now(), e.Deadlocked())
	}
	e.Run()
	if want = append(want, "13.000µs a"); !reflect.DeepEqual(got, want) || len(skipped) != 4 || skipped[3] {
		t.Fatalf("resumes %v, skipped %v; want %v, the last Sleep parked", got, skipped, want)
	}
	e.Close()
}

// A run that spawns a process per request keeps one coroutine per
// concurrently live process, not one per process ever spawned, and none once
// they have all finished.
func TestGoroutinesBoundedByLiveProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	peakLive, peakGoroutines, served := 0, 0, 0
	e.Spawn("server", func(p *Proc) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			e.Spawn("op", func(p *Proc) {
				p.Sleep(Duration(1+rng.Intn(20)) * Microsecond)
				served++
			})
			peakLive = max(peakLive, liveProcs(e))
			peakGoroutines = max(peakGoroutines, runtime.NumGoroutine()-base)
			p.Sleep(Duration(rng.Intn(3)) * Microsecond)
		}
	})
	e.Run()
	if served != 10000 {
		t.Fatalf("served %d ops, want 10000", served)
	}
	if peakGoroutines > peakLive+2 {
		t.Fatalf("up to %d goroutines for at most %d live processes", peakGoroutines, peakLive)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines left once every process finished, want %d", got, base)
	}
	e.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines left after Close, want %d", got, base)
	}
}

// liveProcs counts the processes that have not finished.
func liveProcs(e *Env) int {
	n := 0
	for _, p := range e.procs {
		if !p.finished {
			n++
		}
	}
	return n
}
