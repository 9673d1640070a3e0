package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulation process: a goroutine that runs only while it holds the
// scheduler's hand-off token. At most one Proc executes at any instant, so
// process bodies may freely mutate shared simulation state without locks.
type Proc struct {
	env       *Env
	name      string
	wake      chan struct{}
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
	p := &Proc{env: e, name: name, wake: make(chan struct{})}
	e.nprocs++
	e.procs = append(e.procs, p)
	e.threads.Add(1)
	go p.run(fn)
	p.scheduleResume(e.now)
	return p
}

// closedError is the kill token: the panic Close unwinds a parked process
// with, and what any blocking call raises once its Env is closed.
type closedError struct{ proc string }

func (c closedError) Error() string { return "sim: " + c.proc + " blocked after Close" }

// run is the process goroutine: it waits for the first resume, runs fn, then
// passes the token on. The pass-on is deferred so it also happens when fn
// panics or exits through runtime.Goexit (a t.FailNow in a test's process
// body).
func (p *Proc) run(fn func(*Proc)) {
	e := p.env
	defer e.threads.Done()
	<-p.wake // wait for first resume
	defer func() {
		// While the Env is closing, a panic (the kill token or anything the
		// unwind raises) just ends the process; otherwise it goes to the
		// scheduler with the stack at the panic site.
		var trap *ProcPanic
		if r := recover(); r != nil && !e.closed {
			trap = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
		p.finished = true
		if e.closed {
			e.home <- struct{}{}
			return
		}
		e.nprocs--
		e.handoff(p, trap)
	}()
	if !e.closed {
		fn(p)
	}
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
	p.env.schedule(&item{at: at, p: p, gen: p.resumeGen})
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
