package sim

import (
	"container/heap"
	"fmt"
	"runtime/debug"
	"sync"
)

// Env is a simulation environment: a virtual clock plus an event calendar.
// An Env is not safe for concurrent use. Exactly one goroutine holds the
// scheduler token at a time — the Run caller or a process — and it runs the
// calendar loop itself, passing the token straight to the next process due
// (see Proc.block), so all mutation is serialized without locks.
type Env struct {
	now     Time
	seq     uint64
	cal     calendar
	current *Proc // process currently holding the hand-off token, if any

	home    chan struct{} // the token returns to the Run caller here
	limit   Time          // RunUntil's limit, read by whichever goroutine dispatches
	fault   any           // panic raised on a process goroutine, re-raised by Run
	stack   []byte        // where fault was raised, for FaultStack
	running bool
	closed  bool
	nprocs  int            // live (not yet finished) processes
	procs   []*Proc        // all spawned processes, for Deadlocked reporting and Close
	threads sync.WaitGroup // process goroutines that have not yet exited

	// Observer, when non-nil, receives a structured event per scheduling
	// decision (callback dispatch, process resume) with its virtual
	// timestamp. internal/trace implements this to fold scheduler activity
	// into the unified trace; it must read time only, never advance it.
	Observer SchedObserver

	// OnProcPanic, when non-nil, is consulted before a trapped process
	// panic is re-raised on the Run caller's goroutine. Returning true
	// consumes the panic — the simulation keeps running with the panicked
	// process simply gone, which is how a supervisor models "a thread in
	// the driver VM oopsed" without tearing the whole experiment down.
	// Returning false preserves the default re-panic behavior. The handler
	// runs in scheduler context and must not block.
	OnProcPanic func(*ProcPanic) bool
}

// SchedObserver receives one structured event per scheduling decision. Both
// methods run in scheduler context and must not block, mutate simulation
// state, or advance the clock.
type SchedObserver interface {
	// SchedCallback fires when a calendar callback is dispatched at time at.
	SchedCallback(at Time)
	// SchedResume fires when process proc is handed the token at time at.
	SchedResume(at Time, proc string)
}

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	return &Env{home: make(chan struct{})}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// CurrentProc returns the process currently holding the hand-off token, or
// nil when called from scheduler/callback context.
func (e *Env) CurrentProc() *Proc { return e.current }

type item struct {
	at  Time
	seq uint64
	fn  func() // callback to run (scheduler context), or nil
	p   *Proc  // process to resume (mutually exclusive with fn)
	gen uint64 // resume generation; stale if != p.resumeGen when popped
}

type calendar []*item

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].at != c[j].at {
		return c[i].at < c[j].at
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)   { *c = append(*c, x.(*item)) }
func (c *calendar) Pop() any {
	old := *c
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*c = old[:n-1]
	return it
}

func (e *Env) schedule(it *item) {
	if it.at < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", it.at, e.now))
	}
	it.seq = e.seq
	e.seq++
	heap.Push(&e.cal, it)
}

// At schedules fn to run at absolute time t in scheduler context.
// fn must not block or advance time; to do timed work, spawn a process.
func (e *Env) At(t Time, fn func()) {
	e.schedule(&item{at: t, fn: fn})
}

// After schedules fn to run d from now in scheduler context.
func (e *Env) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Run executes scheduled work until the calendar is empty, then returns.
// Processes still blocked on events when the calendar drains remain blocked;
// Deadlocked reports them, and Close unwinds them.
func (e *Env) Run() {
	e.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes scheduled work up to and including time limit.
func (e *Env) RunUntil(limit Time) {
	if e.closed {
		panic("sim: Run after Close")
	}
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.limit = limit
	e.stack = nil
	if q := e.next(); q != nil {
		// Hand the token to q and wait until some goroutine passes it home:
		// nothing is due by the limit, or a panic needs re-raising here.
		e.current = q
		q.wake <- struct{}{}
		<-e.home
		if f := e.fault; f != nil {
			e.fault = nil
			panic(f)
		}
	}
	if limit < Time(1<<62-1) && e.now < limit {
		e.now = limit
	}
}

// FaultStack returns the stack captured where the panic the last Run
// re-raised was raised, when that was on a process goroutine (a callback or
// observer dispatched there, or a process panic no OnProcPanic consumed);
// otherwise nil. Run re-raises the original value, so the frames of such a
// panic site are reachable only here.
func (e *Env) FaultStack() []byte { return e.stack }

// next runs every callback due by the run limit, in calendar order, and
// returns the next process to resume, or nil when nothing is due. It runs on
// whichever goroutine holds the token, with no process current.
func (e *Env) next() *Proc {
	for e.cal.Len() > 0 {
		it := e.cal[0]
		if it.p != nil && (it.p.finished || it.gen != it.p.resumeGen) {
			// Stale resume (dead process or superseded wake-up): discard
			// without letting it advance the clock.
			heap.Pop(&e.cal)
			continue
		}
		if it.at > e.limit {
			break
		}
		heap.Pop(&e.cal)
		e.now = it.at
		if it.fn != nil {
			if e.Observer != nil {
				e.Observer.SchedCallback(e.now)
			}
			it.fn()
			continue
		}
		it.p.queued = false
		if e.Observer != nil {
			e.Observer.SchedResume(e.now, it.p.name)
		}
		return it.p
	}
	return nil
}

// handoff passes the token on from process p, which has blocked or finished,
// carrying p's panic if it died of one. It runs due callbacks on p's
// goroutine, then wakes the next process due or, when none is due by the
// limit, sends the token home to the Run caller. It reports whether the next
// process due is p itself, which then simply keeps running.
func (e *Env) handoff(p *Proc, trap *ProcPanic) bool {
	e.current = nil
	switch q := e.dispatch(trap); q {
	case nil:
		e.home <- struct{}{}
	case p:
		e.current = p
		return true
	default:
		e.current = q
		q.wake <- struct{}{}
	}
	return false
}

// dispatch is next on a process goroutine. A panic there — from a callback,
// an observer, or a process panic no OnProcPanic handler consumed — is saved
// for the Run caller to re-raise with its original value, as if the calendar
// loop had run on the Run caller's goroutine all along.
func (e *Env) dispatch(trap *ProcPanic) (q *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fault, e.stack = r, debug.Stack()
			q = nil
		}
	}()
	if trap != nil && (e.OnProcPanic == nil || !e.OnProcPanic(trap)) {
		// Re-raise on the Run caller's goroutine so a harness can recover
		// (and report, say, the reproducing seed) instead of the whole
		// program dying on a goroutine nobody can recover from — unless a
		// registered OnProcPanic handler (a supervisor) consumes it first.
		panic(trap)
	}
	return e.next()
}

// Close unwinds every unfinished process so its goroutine exits and no
// longer pins the environment. A parked process panics a kill token out of
// the call that blocked it, running its deferred calls; a process that never
// started just exits. Close must not be called during Run; afterwards Run,
// Spawn and any blocking call panic. Closing twice is a no-op.
func (e *Env) Close() {
	if e.running {
		panic("sim: Close during Run")
	}
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		if !p.finished {
			p.wake <- struct{}{}
			<-e.home
		}
	}
	e.cal, e.procs, e.nprocs = nil, nil, 0
	// A process goroutine passes the token on just before it exits; wait out
	// the last few steps of any still on their way, so none outlives Close.
	e.threads.Wait()
}

// ProcPanic is the value re-panicked on the goroutine driving Run when a
// simulation process panics: the process name, the original panic value,
// and the stack captured at the panic site.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

func (pp *ProcPanic) String() string { return pp.Error() }

// Deadlocked returns the names of processes that are still alive but have no
// pending calendar entry — i.e. they are waiting on events that will never
// fire. Useful in tests after Run returns.
func (e *Env) Deadlocked() []string {
	if e.nprocs == 0 {
		return nil
	}
	var names []string
	for _, p := range e.procs {
		if !p.finished && !p.queued {
			names = append(names, p.name)
		}
	}
	return names
}
