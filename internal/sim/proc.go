//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
)

// Proc is a simulation process: a body that runs on a coroutine, only while
// the scheduler has resumed it. At most one Proc executes at any instant, so
// process bodies may freely mutate shared simulation state without locks.
// It passes virtual time only by Sleep, Wait, WaitTimeout or Resource.Acquire.
//
// A body that leaves through runtime.Goexit (a t.FailNow in a test's process
// body) ends its coroutine, and the Goexit carries on down the chain of
// coroutines that resumed it (see thread): each process beneath it that
// handed off to it ends too, running its deferred calls, and so does the
// goroutine that called Run. The Env stays usable.
type Proc struct {
	env       *Env
	name      string
	t         *thread // the coroutine it runs on
	finished  bool
	queued    bool   // has a pending calendar resume entry
	resumeGen uint64 // bumped per scheduled resume; stale entries are skipped
	rid       uint64 // request the process serves; 0 for background work
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
		t = new(thread)
		t.resume, t.stop = iter.Pull(t.loop)
	}
	p := &Proc{env: e, name: name, t: t}
	t.p, t.fn = p, fn
	if len(e.procs) == cap(e.procs) && e.nprocs <= len(e.procs)/2 {
		// At least half the list has finished: drop those instead of
		// growing, so a run that spawns a process per request keeps only
		// the live ones. The survivors stay in spawn order.
		e.procs = slices.DeleteFunc(e.procs, func(q *Proc) bool { return q.finished })
	}
	e.nprocs++
	e.procs = append(e.procs, p)
	p.scheduleResume(e.now, false)
	return p
}

// closedError is the kill token: the panic Close unwinds a parked process
// with, and what any blocking call raises once its Env is closed.
type closedError struct{ proc string }

func (c closedError) Error() string { return "sim: " + c.proc + " blocked after Close" }

// thread is a process coroutine. It runs one process body after another, so
// a run that spawns a process per request starts a coroutine only per
// concurrently live process. Between bodies it is parked on Env.idle with p
// and fn nil; Spawn hands it the next body.
//
// The coroutines up (running, or resuming another) form one chain from the
// Run caller to the one running: a process that blocks resumes the next
// process due itself when that one's coroutine is parked, and stays up
// beneath it. A coroutine that cannot resume the next process due (it is
// nil, or up beneath) yields it down the chain, and each coroutine it
// reaches either is that process or passes it further down.
type thread struct {
	p  *Proc
	fn func(*Proc)
	up bool // running or resuming another thread; false while parked

	resume func() (*Proc, bool) // run until the thread yields a process down
	stop   func()               // end the thread; returns once its goroutine has exited
	yield  func(*Proc) bool     // down to the resumer; false once stop is called
}

// enter resumes t and returns what t yields down once it parks again: nil,
// a process whose coroutine is up beneath t, or, after a body finished on t,
// the next process due.
func (t *thread) enter() *Proc {
	t.up = true
	q, _ := t.resume()
	t.up = false
	return q
}

// loop runs the body of t's process, runs the calendar loop on to the next
// process due, and yields that process down to its resumer, or runs it at
// once when a callback spawned it onto t. It repeats when t is resumed with
// the next body, and returns once Close stops t.
func (t *thread) loop(yield func(*Proc) bool) {
	t.yield = yield
	for {
		if q := t.p.run(t); (q == nil || q.t != t) && !yield(q) {
			return
		}
	}
}

// run runs p's body on t, then returns the next process due. That tail is
// deferred so it also happens when the body panics. A body that leaves through
// runtime.Goexit takes t with it: the tail only marks p finished, and the
// Goexit then ends every coroutine beneath t and the Run caller too.
func (p *Proc) run(t *thread) (q *Proc) {
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
			return
		}
		e.nprocs--
		if !returned && r == nil {
			e.current = nil
			return
		}
		e.idle = append(e.idle, t)
		q = e.dispatch(trap)
	}()
	fn(p)
	returned = true
	return nil
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
// switch, and takes over whatever comes back down. Otherwise p yields the
// next process (or nil) down and parks.
func (p *Proc) block() {
	for q := p.env.dispatch(nil); q != p; q = q.t.enter() {
		if q == nil || q.t.up {
			if !p.t.yield(q) {
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
