package sim

import (
	"fmt"
	"runtime/debug"
)

// Env is a simulation environment: a virtual clock plus an event calendar.
// An Env is not safe for concurrent use. Exactly one process body or the Run
// caller executes at a time: each process runs on its own coroutine, resumed
// when it is due by Run or by the process that blocked before it (see
// Proc.block), and runs until it blocks or finishes, so all mutation is
// serialized without locks.
type Env struct {
	now     Time
	seq     uint64
	cal     calendar
	current *Proc // process currently running, if any

	limit   Time   // RunUntil's limit, read by whichever coroutine dispatches
	fault   any    // panic raised on a process coroutine, re-raised by Run
	stack   []byte // where fault was raised, for FaultStack
	running bool
	closed  bool
	procs   []*Proc // every process spawned, in spawn order, for Deadlocked and Close

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

	// Tracer and Faults hold the environment's installed tracer and fault
	// plan. Only trace.Install and faults.Install set them (they are typed
	// any because this package cannot import either); everything else reads
	// them through trace.Get and faults.Point. Held on the Env, they are
	// collected with it.
	Tracer any
	Faults any
}

// SchedObserver receives one structured event per scheduling decision. Both
// methods run in scheduler context and must not block, mutate simulation
// state, or advance the clock.
type SchedObserver interface {
	// SchedCallback fires when a calendar callback is dispatched at time at.
	SchedCallback(at Time)
	// SchedResume fires when process proc is resumed at time at.
	SchedResume(at Time, proc string)
}

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// CurrentProc returns the process currently running, or nil when called
// from scheduler/callback context.
func (e *Env) CurrentProc() *Proc { return e.current }

// item is one calendar entry, held by value so scheduling allocates nothing.
type item struct {
	at  Time
	seq uint64
	fn  func() // callback to run (scheduler context), or nil
	p   *Proc  // process to resume (mutually exclusive with fn)
	gen uint64 // resume generation; stale if != p.resumeGen when popped
}

// before is the calendar order: by time, then by scheduling sequence. Every
// item has its own seq, so the order is total and pops are deterministic.
func (a *item) before(b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// stale reports a resume its process no longer waits for: the process has
// finished or a later wake-up superseded this one. Staleness is permanent.
func (it *item) stale() bool {
	return it.p != nil && (it.p.finished || it.gen != it.p.resumeGen)
}

// calendar holds the scheduled items in before order, in three parts. An
// item due at the instant it is scheduled goes to the due-now queue, which is
// already in before order since seqs only grow; every other item goes to a
// binary min-heap. The queue holds only items due now, and now moves only
// once it has drained (an item due later cannot be earlier than its head), so
// a same-instant wake-up never sifts through the heap. The earliest item is
// whichever head comes first.
//
// A WaitTimeout deadline, which the event it waits on almost always
// supersedes, may instead join the deadline queue: it does when it sorts at
// or after the queue's tail, so the queue too is in before order. Only the
// queue's head is also in the heap. When the heap pops it, the queue drops it
// and every stale entry behind it, and the next live entry goes into the heap
// with its own (at, seq), so a superseded deadline behind the head never
// sifts through the heap. Stale items never move the clock, so holding them
// back changes no pop of a live item.
type calendar struct {
	due  FIFO[item]
	heap []item
	tmo  FIFO[item]
}

// push adds it to the due-now queue when it is due at now, else to the heap.
func (c *calendar) push(it item, now Time) {
	if it.at == now {
		c.due.Push(it)
		return
	}
	c.heapPush(it)
}

// deadline adds a WaitTimeout deadline, due after now: to the deadline queue
// and the heap when the queue is empty, to the queue alone when it sorts at
// or after the queue's tail, and to the heap alone when it sorts before it.
func (c *calendar) deadline(it item) {
	if c.tmo.Len() == 0 {
		c.tmo.Push(it)
	} else if it.at >= c.tmo.buf[len(c.tmo.buf)-1].at {
		c.tmo.Push(it)
		return
	}
	c.heapPush(it)
}

// heapPush adds it to the heap, sifting the hole it fills up from the bottom.
func (c *calendar) heapPush(it item) {
	h := append(c.heap, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	c.heap = h
}

// top returns the earliest item, or nil when the calendar is empty, and
// whether it heads the due-now queue (what pop takes).
func (c *calendar) top() (it *item, due bool) {
	if c.due.Len() > 0 {
		it = &c.due.buf[c.due.head]
		if len(c.heap) == 0 || it.before(&c.heap[0]) {
			return it, true
		}
	}
	if len(c.heap) == 0 {
		return nil, false
	}
	return &c.heap[0], false
}

// pop removes the earliest item, which top reported as heading the due-now
// queue or not. Off the heap, it sifts the last item down from the root; if
// the root headed the deadline queue, the queue's next live entry takes its
// place in the heap.
func (c *calendar) pop(due bool) {
	if due {
		c.due.Pop()
		return
	}
	h := c.heap
	root := h[0].seq
	n := len(h) - 1
	last := h[n]
	h[n] = item{} // drop the callback and process references
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h[r].before(&h[m]) {
				m = r
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	c.heap = h
	if c.tmo.Len() > 0 && c.tmo.buf[c.tmo.head].seq == root {
		c.promote()
	}
}

// promote drops the deadline queue's head, which the heap just popped, and
// every stale entry behind it, then puts the next live entry into the heap.
// It goes into the heap even when it is due now: the due-now queue's items
// have newer seqs, and the heap orders it among them by its own.
func (c *calendar) promote() {
	c.tmo.Pop()
	for c.tmo.Len() > 0 {
		if it := &c.tmo.buf[c.tmo.head]; !it.stale() {
			c.heapPush(*it)
			return
		}
		c.tmo.Pop()
	}
}

// schedule files it in the calendar under the next seq: in the deadline queue
// when it is a WaitTimeout deadline (see calendar), else by push.
func (e *Env) schedule(it item, deadline bool) {
	if it.at < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", it.at, e.now))
	}
	it.seq = e.seq
	e.seq++
	if deadline {
		e.cal.deadline(it)
	} else {
		e.cal.push(it, e.now)
	}
}

// At schedules fn to run at absolute time t in scheduler context.
// fn must not block or advance time; to do timed work, spawn a process.
func (e *Env) At(t Time, fn func()) {
	e.schedule(item{at: t, fn: fn}, false)
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
	// Resume the next process due; it and the processes it resumes in turn
	// run until the next process due comes back down to here (a body
	// finished and nothing above could resume it), or nil when nothing is
	// due by the limit or a panic needs re-raising here.
	for q := e.next(); q != nil; {
		q = q.enter()
	}
	if f := e.fault; f != nil {
		e.fault = nil
		panic(f)
	}
	if limit < Time(1<<62-1) && e.now < limit {
		e.now = limit
	}
}

// FaultStack returns the stack captured where the panic the last Run
// re-raised was raised, when that was on a process coroutine (a callback or
// observer dispatched there, or a process panic no OnProcPanic consumed);
// otherwise nil. Run re-raises the original value, so the frames of such a
// panic site are reachable only here.
func (e *Env) FaultStack() []byte { return e.stack }

// next runs every callback due by the run limit, in calendar order, and
// returns the next process to resume, now current, or nil when nothing is
// due. It runs with no process current, on the Run caller or on the
// coroutine of the process that just blocked or finished.
func (e *Env) next() *Proc {
	for {
		top, due := e.cal.top()
		if top == nil {
			break
		}
		it := *top
		if it.stale() {
			// Stale resume (dead process or superseded wake-up): discard
			// without letting it advance the clock.
			e.cal.pop(due)
			continue
		}
		if it.at > e.limit {
			break
		}
		e.cal.pop(due)
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
		e.current = it.p
		return it.p
	}
	return nil
}

// dispatch is next on a process coroutine. A panic there — from a callback,
// an observer, or a process panic no OnProcPanic handler consumed — is saved
// for the Run caller to re-raise with its original value, as if the calendar
// loop had run on the Run caller's goroutine all along, and must not unwind
// the process body dispatch runs under.
func (e *Env) dispatch(trap *ProcPanic) (q *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fault, e.stack = r, debug.Stack()
			q = nil
		}
	}()
	e.current = nil
	if trap != nil && (e.OnProcPanic == nil || !e.OnProcPanic(trap)) {
		// Re-raise on the Run caller's goroutine so a harness can recover
		// (and report, say, the reproducing seed) instead of the whole
		// program dying on a goroutine nobody can recover from — unless a
		// registered OnProcPanic handler (a supervisor) consumes it first.
		panic(trap)
	}
	return e.next()
}

// Close unwinds every unfinished process so its coroutine exits and no
// longer pins the environment. A parked process panics a kill token out of
// the call that blocked it, running its deferred calls; a process that never
// started just exits. A finished process's coroutine ended with its body, so
// each coroutine has exited by the time Close returns. Close must not be
// called during Run; afterwards Run, Spawn and any blocking call panic.
// Closing twice is a no-op.
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
			p.stop()
		}
	}
	e.cal, e.procs = calendar{}, nil
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
	var names []string
	for _, p := range e.procs {
		if !p.finished && !p.queued {
			names = append(names, p.name)
		}
	}
	return names
}
