//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulation process: a body that runs on a coroutine of its own,
// only while the scheduler has resumed it. At most one Proc executes at any
// instant, so process bodies may freely mutate shared simulation state without
// locks. It passes virtual time only by Sleep, Wait, WaitTimeout or
// Resource.Acquire.
//
// The coroutines up (running, or resuming another) form one chain from the
// Run caller to the one running: a process that blocks resumes the next
// process due itself when that one's coroutine is parked, and stays up
// beneath it. A process that cannot resume the next process due (it is nil,
// or up beneath) yields it down the chain, and each coroutine it reaches
// either is that process or passes it further down. A body that finishes
// ends its coroutine, which leaves the next process due to its resumer.
//
// A body that leaves through runtime.Goexit (a t.FailNow in a test's process
// body) ends its coroutine, and the Goexit carries on down the chain: each
// process beneath it that handed off to it ends too, running its deferred
// calls, and so does the goroutine that called Run. The Env stays usable.
type Proc struct {
	env       *Env
	name      string
	fn        func(*Proc) // the body; nil once it has started
	up        bool        // running or resuming another process: set by enter, cleared as p parks
	finished  bool
	queued    bool   // has a pending calendar resume entry
	resumeGen uint64 // bumped per scheduled resume; stale entries are skipped
	rid       uint64 // request the process serves; 0 for background work
	next      *Proc  // the next process due, left by the finished body

	resume func() (*Proc, bool) // run until the coroutine yields a process down or ends
	stop   func()               // end the coroutine; returns once its goroutine has exited
	yield  func(*Proc) bool     // down to the resumer; false once stop is called
}

// Spawn creates a process running fn, scheduled to start now.
// fn receives the process handle for sleeping and waiting.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn after Close")
	}
	p := &Proc{env: e, name: name, fn: fn}
	p.resume, p.stop = iter.Pull(p.run)
	e.procs = append(e.procs, p)
	p.scheduleResume(e.now, false)
	return p
}

// closedError is the kill token: the panic Close unwinds a parked process
// with, and what any blocking call raises once its Env is closed.
type closedError struct{ proc string }

func (c closedError) Error() string { return "sim: " + c.proc + " blocked after Close" }

// enter resumes p and returns what p yields down once it parks again (nil or
// a process whose coroutine is up beneath p) or, once its body has finished,
// the next process due. p clears up itself when it parks, which keeps enter
// within the inliner's budget (cost 80 of 80): both calendar loops inline it,
// and a call would add about 5% to every hop.
func (p *Proc) enter() *Proc {
	p.up = true
	q, ok := p.resume()
	if !ok {
		q = p.next
	}
	return q
}

// run is p's coroutine: it runs p's body, then leaves the next process due in
// p.next. That tail is deferred so it also happens when the body panics. A
// body that leaves through runtime.Goexit takes the coroutine with it: the
// tail only marks p finished, and the Goexit then ends every coroutine
// beneath it and the Run caller too.
func (p *Proc) run(yield func(*Proc) bool) {
	e, fn := p.env, p.fn
	p.yield, p.fn = yield, nil // a finished process must not pin its closure
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
		p.resume, p.stop, p.yield = nil, nil, nil // nor its coroutine's
		if e.closed {
			return
		}
		if !returned && r == nil {
			e.current = nil
			return
		}
		p.next = e.dispatch(trap)
	}()
	fn(p)
	returned = true
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

// RID returns the trace request the process is serving: what every span and
// instant it causes is attributed to. It is 0 for background work and on a
// nil process (callback context, where CurrentProc is nil).
func (p *Proc) RID() uint64 {
	if p == nil {
		return 0
	}
	return p.rid
}

// SetRID makes the process serve request rid until the next SetRID; 0 ends
// the request. A no-op on a nil process.
func (p *Proc) SetRID(rid uint64) {
	if p != nil {
		p.rid = rid
	}
}

// scheduleResume schedules p's resume at time at, superseding any pending
// one; deadline marks a WaitTimeout deadline.
func (p *Proc) scheduleResume(at Time, deadline bool) {
	p.queued = true
	p.resumeGen++
	p.env.schedule(item{at: at, p: p, gen: p.resumeGen}, deadline)
}

// check panics unless p may block now: its Env is open and p is the process
// running. Every blocking call checks before it touches any state, so a call
// on the wrong process leaves no stray wake-up behind.
func (p *Proc) check() {
	if p.env.closed {
		panic(closedError{p.name})
	}
	if p.env.current != p {
		panic(fmt.Sprintf("sim: %s blocking while not current", p.name))
	}
}

// block suspends p until it is resumed. The calendar loop runs right here on
// p's coroutine. If p itself is the next process due it just returns. If the
// next one's coroutine is parked, p resumes it directly, in one coroutine
// switch, and takes over whatever comes back down: what that one yields when
// it parks, or the next process due once its body has finished. Otherwise p
// yields the next process (or nil) down and parks.
func (p *Proc) block() {
	for q := p.env.dispatch(nil); q != p; q = q.enter() {
		if q == nil || q.up {
			p.up = false
			if !p.yield(q) {
				panic(closedError{p.name})
			}
			return
		}
	}
}

// Sleep suspends the process for d of simulated time while other processes
// and callbacks run; Sleep(0) lets the work already due now run first. Work
// that models a cost sleeps through perf.Spend, which records its layer.
//
// When nothing else is due by then and the run's limit allows it, p would be
// the next process due: the clock moves on and Sleep returns without touching
// the calendar, reporting the resume to the observer all the same.
func (p *Proc) Sleep(d Duration) {
	p.check()
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now.Add(d)
	if top, _ := e.cal.top(); at <= e.limit && (top == nil || at < top.at) {
		e.now = at
		if e.Observer != nil {
			e.Observer.SchedResume(at, p.name)
		}
		return
	}
	p.scheduleResume(at, false)
	p.block()
}
