package sim

import (
	"container/heap"
	"fmt"
)

// Env is a simulation environment: a virtual clock plus an event calendar.
// An Env is not safe for concurrent use; all mutation happens either from the
// goroutine driving Run or from the single simulation process the scheduler
// has handed control to.
type Env struct {
	now     Time
	seq     uint64
	cal     calendar
	current *Proc // process currently holding the hand-off token, if any

	yield   chan yieldKind // processes signal the scheduler here
	running bool
	nprocs  int     // live (not yet finished) processes
	procs   []*Proc // all spawned processes, for Deadlocked reporting
	trap    *ProcPanic

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

type yieldKind int

const (
	yieldBlocked yieldKind = iota // process blocked on timer/event/resource
	yieldDone                     // process function returned
)

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	return &Env{yield: make(chan yieldKind)}
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
// Deadlocked reports them.
func (e *Env) Run() {
	e.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes scheduled work up to and including time limit.
func (e *Env) RunUntil(limit Time) {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.cal.Len() > 0 {
		it := e.cal[0]
		if it.p != nil && (it.p.finished || it.gen != it.p.resumeGen) {
			// Stale resume (dead process or superseded wake-up): discard
			// without letting it advance the clock.
			heap.Pop(&e.cal)
			continue
		}
		if it.at > limit {
			break
		}
		heap.Pop(&e.cal)
		e.now = it.at
		switch {
		case it.fn != nil:
			if e.Observer != nil {
				e.Observer.SchedCallback(e.now)
			}
			it.fn()
		case it.p != nil:
			it.p.queued = false
			e.resume(it.p)
		}
	}
	if limit < Time(1<<62-1) && e.now < limit {
		e.now = limit
	}
}

// resume hands control to p and waits for it to yield back.
func (e *Env) resume(p *Proc) {
	if e.Observer != nil {
		e.Observer.SchedResume(e.now, p.name)
	}
	e.current = p
	p.wake <- struct{}{}
	k := <-e.yield
	e.current = nil
	if k == yieldDone {
		e.nprocs--
		if e.trap != nil {
			// The process goroutine panicked: re-raise on the Run caller's
			// goroutine so a harness can recover (and report, say, the
			// reproducing seed) instead of the whole program dying on a
			// goroutine nobody can recover from — unless a registered
			// OnProcPanic handler (a supervisor) consumes it first.
			tr := e.trap
			e.trap = nil
			if e.OnProcPanic == nil || !e.OnProcPanic(tr) {
				panic(tr)
			}
		}
	}
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
