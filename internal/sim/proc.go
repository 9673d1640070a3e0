package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
)

// Proc is a simulation process: a body that runs on a process goroutine only
// while it holds the scheduler's hand-off token. At most one Proc executes at
// any instant, so process bodies may freely mutate shared simulation state
// without locks.
type Proc struct {
	env       *Env
	name      string
	wake      chan struct{} // its goroutine's (thread.wake)
	finished  bool
	queued    bool   // has a pending calendar resume entry
	resumeGen uint64 // bumped per scheduled resume; stale entries are skipped
}

// Spawn creates a process running fn, scheduled to start now.
// fn receives the process handle for sleeping and waiting.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn after Close")
	}
	var t *thread
	if n := len(e.idle); n > 0 {
		t = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		t = &thread{wake: make(chan struct{})}
		e.threads.Add(1)
		go t.loop(e)
	}
	p := &Proc{env: e, name: name, wake: t.wake}
	t.p, t.fn = p, fn
	if len(e.procs) == cap(e.procs) && e.nprocs <= len(e.procs)/2 {
		// At least half the list has finished: drop those instead of
		// growing, so a run that spawns a process per request keeps only
		// the live ones. The survivors stay in spawn order.
		e.procs = slices.DeleteFunc(e.procs, func(q *Proc) bool { return q.finished })
	}
	e.nprocs++
	e.procs = append(e.procs, p)
	p.scheduleResume(e.now)
	return p
}

// closedError is the kill token: the panic Close unwinds a parked process
// with, and what any blocking call raises once its Env is closed.
type closedError struct{ proc string }

func (c closedError) Error() string { return "sim: " + c.proc + " blocked after Close" }

// thread is a process goroutine. It runs one process body after another, so
// a run that spawns a process per request starts a goroutine only per
// concurrently live process. Between bodies it is parked on Env.idle with p
// and fn nil; Spawn hands it the next body.
type thread struct {
	wake chan struct{} // shared with the process it runs
	p    *Proc
	fn   func(*Proc)
}

// loop waits for the first resume of t's process, runs it, and repeats. It
// exits when a body leaves through runtime.Goexit (a t.FailNow in a test's
// process body), when the Env closes, or when Close wakes it idle.
func (t *thread) loop(e *Env) {
	defer e.threads.Done()
	for mine := false; ; {
		if !mine {
			<-t.wake
		}
		p := t.p
		if p == nil {
			return // woken idle by Close
		}
		var again bool
		if again, mine = p.run(t); !again {
			return
		}
	}
}

// run runs p's body on t, then passes the token on. The pass-on is deferred so
// it also happens when the body panics or exits through runtime.Goexit. It
// reports whether t goes back to the idle list, and whether the hand-off gave
// the token to the process Spawn meanwhile put on t, which then runs at once.
// Nothing after the hand-off touches the Env: another goroutine holds it.
func (p *Proc) run(t *thread) (again, mine bool) {
	e, fn := p.env, t.fn
	t.p, t.fn = nil, nil // pin neither this process nor its closure once done
	returned := false
	defer func() {
		// While the Env is closing, a panic (the kill token or anything the
		// unwind raises) just ends the process; otherwise it goes to the
		// scheduler with the stack at the panic site.
		var trap *ProcPanic
		r := recover()
		if r != nil && !e.closed {
			trap = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
		p.finished = true
		if e.closed {
			e.home <- struct{}{}
			return
		}
		e.nprocs--
		// A body that left through Goexit takes its goroutine with it.
		if again = returned || r != nil; again {
			e.idle = append(e.idle, t)
		}
		mine = e.handoff(p, trap)
	}()
	if !e.closed {
		fn(p)
	}
	returned = true
	return
}

// RunFunc spawns fn as a process and runs the environment until the calendar
// drains. It is a convenience for tests and sequential experiments.
func (e *Env) RunFunc(name string, fn func(p *Proc)) {
	e.Spawn(name, fn)
	e.Run()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

func (p *Proc) scheduleResume(at Time) {
	p.queued = true
	p.resumeGen++
	p.env.schedule(item{at: at, p: p, gen: p.resumeGen})
}

// block gives up the token and returns when p is resumed. The calendar loop
// runs right here on p's goroutine: if p itself is the next process due it
// just returns; otherwise p wakes the next one (or the Run caller) and parks.
func (p *Proc) block() {
	e := p.env
	if e.closed {
		panic(closedError{p.name})
	}
	if e.current != p {
		panic(fmt.Sprintf("sim: %s blocking while not current", p.name))
	}
	if e.handoff(p, nil) {
		return
	}
	<-p.wake
	if e.closed {
		panic(closedError{p.name})
	}
}

// Sleep suspends the process for d of simulated time.
// Other processes and callbacks scheduled within the window run meanwhile.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.scheduleResume(p.env.now.Add(d))
	p.block()
}

// Advance is Sleep under a name that reads better when the elapsed time
// models work being performed (a hypercall, a memory copy, wire time).
func (p *Proc) Advance(d Duration) { p.Sleep(d) }

// Yield cedes the processor without advancing time, letting any other work
// scheduled at the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }
