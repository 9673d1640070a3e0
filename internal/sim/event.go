package sim

// Event is a one-shot condition processes can wait on. Triggering an event
// wakes all current waiters; waiters arriving after the trigger return
// immediately. Reset re-arms the event for reuse (the wait-queue pattern the
// kernels build on).
type Event struct {
	env       *Env
	fired     bool
	waiters   []*Proc
	callbacks []func()
}

// NewEvent returns an un-fired event.
func (e *Env) NewEvent() *Event {
	return &Event{env: e}
}

// Trigger fires the event now, waking all waiters at the current time.
// Triggering an already-fired event is a no-op.
func (ev *Event) Trigger() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, p := range ev.waiters {
		p.scheduleResume(ev.env.now, false)
	}
	// Keep the slice for the next round of waiters; no process runs here,
	// so nothing can append to it meanwhile.
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0]
	for _, fn := range ev.callbacks {
		ev.env.At(ev.env.now, fn)
	}
	ev.callbacks = nil
}

// Reset re-arms a fired event so it can be waited on and triggered again.
func (ev *Event) Reset() { ev.fired = false }

// OnFire registers fn to run (in scheduler context) when the event fires.
// If the event has already fired, fn runs at the current time.
func (ev *Event) OnFire(fn func()) {
	if ev.fired {
		ev.env.At(ev.env.now, fn)
		return
	}
	ev.callbacks = append(ev.callbacks, fn)
}

// Wait suspends p until the event fires. Returns immediately if already fired.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	p.check()
	ev.waiters = append(ev.waiters, p)
	p.block()
}

// WaitTimeout suspends p until the event fires or d elapses, whichever comes
// first. It reports whether the event fired (true) or the wait timed out.
//
// A deadline d > 0 is filed as a calendar deadline (see calendar): a polling
// wait expects its event to fire first, and a superseded deadline queued
// behind the deadline queue's head never reaches the heap.
func (p *Proc) WaitTimeout(ev *Event, d Duration) bool {
	if ev.fired {
		return true
	}
	p.check()
	ev.waiters = append(ev.waiters, p)
	p.scheduleResume(p.env.now.Add(d), d > 0)
	p.block()
	if ev.fired {
		return true
	}
	// Timed out: withdraw from the waiter list so a later Trigger does not
	// schedule a stale resume.
	for i, w := range ev.waiters {
		if w == p {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			break
		}
	}
	return false
}
