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
	p := &Proc{env: e, name: name, wake: make(chan struct{})}
	e.nprocs++
	e.procs = append(e.procs, p)
	go func() {
		<-p.wake // wait for first resume
		defer func() {
			p.finished = true
			if r := recover(); r != nil {
				// Capture the panic for the scheduler to re-raise on the
				// Run caller's goroutine (see Env.resume); the channel send
				// orders the write before the scheduler's read.
				e.trap = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			e.yield <- yieldDone
		}()
		fn(p)
	}()
	p.scheduleResume(e.now)
	return p
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

// block yields control to the scheduler and returns when resumed.
func (p *Proc) block() {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: %s yielding while not current", p.name))
	}
	p.env.yield <- yieldBlocked
	<-p.wake
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
