package kernel

import (
	"paradice/internal/devfile"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// WaitQueue is a kernel wait queue: tasks block on it, and a wake-up from
// (simulated) interrupt or driver context makes them runnable after the
// scheduler's wake-up latency. Drivers use wait queues for blocking reads
// and poll support; the CVD backend uses one per guest VM for its file
// operation queue.
type WaitQueue struct {
	env     *sim.Env
	waiters []*sim.Event
	pollers []*sim.Event
}

// NewWaitQueue returns an empty wait queue on the kernel's clock.
func (k *Kernel) NewWaitQueue() *WaitQueue {
	return &WaitQueue{env: k.Env}
}

// Wake makes all current waiters runnable (after the scheduler wake-up
// cost, charged on the waiter side) and fires all registered pollers.
func (wq *WaitQueue) Wake() {
	ws, ps := wq.waiters, wq.pollers
	wq.waiters, wq.pollers = nil, nil
	for _, ev := range ws {
		ev.Trigger()
	}
	for _, ev := range ps {
		ev.Trigger()
	}
}

// Wait blocks the task until the queue is woken, then charges the wake-up
// latency.
func (wq *WaitQueue) Wait(t *Task) {
	ev := wq.env.NewEvent()
	wq.waiters = append(wq.waiters, ev)
	t.sp.Wait(ev)
	perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerSched, "wakeup", perf.CostWakeup+t.Proc.K.WakePenalty)
}

// PollTable collects the wait queues a poll call depends on; any wake on
// any of them ends the poll wait.
type PollTable struct {
	ev *sim.Event
	// Want is the event mask the poller is waiting for. Drivers normally
	// ignore it, but the CVD frontend forwards it so the backend knows when
	// to arm a poll-wake notification.
	Want devfile.PollMask
}

// NewPollTable returns a fresh poll table.
func (k *Kernel) NewPollTable() *PollTable {
	return &PollTable{ev: k.Env.NewEvent()}
}

// Register hooks the table onto a wait queue; the driver's poll handler
// calls this for each queue that may produce events.
func (pt *PollTable) Register(wq *WaitQueue) {
	wq.pollers = append(wq.pollers, pt.ev)
}

// Event exposes the table's wake event. The CVD backend uses it to arm
// asynchronous poll-wake notifications toward the frontend.
func (pt *PollTable) Event() *sim.Event { return pt.ev }

// wait blocks until any registered queue wakes or the timeout elapses.
func (pt *PollTable) wait(t *Task, d sim.Duration) bool {
	woken := t.sp.WaitTimeout(pt.ev, d)
	if woken {
		perf.Spend(t.Proc.K.Env, t.Proc.K.Name, trace.LayerSched, "wakeup", perf.CostWakeup+t.Proc.K.WakePenalty)
	}
	return woken
}
