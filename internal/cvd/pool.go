package cvd

import (
	"slices"
	"strconv"

	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Pool is a driver VM's handler set: the threads that run forwarded file
// operations for every CVD channel attached to it ("the CVD backend invokes a
// thread to execute the file operation"). A finished handler parks on its
// own event, and each operation wakes the last one parked, no other; a
// handler is spawned only when none is parked. Uncapped (cap 0) the
// operation is handed to that handler, so every operation in flight has a
// thread of its own, the paper's model. Capped, the operation joins its
// channel's FIFO queue, and handlers drain the queues round-robin, one
// operation per channel per turn, so a hot guest gets at most its round
// share of handlers. Either way one channel's operations start in post
// order: hand-offs resume in the order they were made, and a handler pops
// and starts a queued operation in one step.
//
// Handlers are named "cvd-op-<n>@<driver>": the prefix and the driver suffix
// route a handler's panic to its driver VM's supervisor. Every backend starts
// in an uncapped set of its own; a Machine joins it to its shard's set.
type Pool struct {
	driverK *kernel.Kernel
	cap     int // most handlers at once; 0 means one per operation in flight
	stopped bool

	handlers int        // handlers spawned
	idle     []*handler // parked handlers, last parked first

	channels []*poolChan
	rr       int // round-robin cursor into channels
	queued   int // operations queued over all channels

	// onServe, when set, observes every operation a handler starts, in start
	// order (test hook for the per-channel FIFO contract). Runs in handler
	// context before the operation executes; must not block.
	onServe func(b *Backend, req request)

	// Stats observable by tests and the bench harness.
	Enqueued uint64 // operations handed to the pool
	Served   uint64 // operations a handler started
	Dropped  uint64 // stale operations discarded (channel left or ring epoch moved)
	MaxDepth int    // high-water mark of total queued operations
}

// poolChan is one channel's slice of the pool: its FIFO backlog.
type poolChan struct {
	b *Backend
	q sim.FIFO[request]
}

// handler is one handler thread's state: the operation handed to it and the
// task, conduit and context every operation it runs reuses.
type handler struct {
	wake *sim.Event
	b    *Backend // the operation handed over; nil to pop one, or to exit
	req  request
	op   forwarded
}

// NewPool creates a handler set on the driver VM kernel holding at most
// workers handlers; 0 means uncapped. Handlers are spawned on demand.
func NewPool(driverK *kernel.Kernel, workers int) *Pool {
	return &Pool{driverK: driverK, cap: max(workers, 0)}
}

// Join attaches a backend's channel to the pool, taking it out of the set
// it was in. Channels are served in join order by the round-robin cursor.
func (pl *Pool) Join(b *Backend) {
	if b.poolChan != nil {
		if b.pool == pl {
			return
		}
		b.pool.Leave(b)
	}
	c := &poolChan{b: b}
	pl.channels = append(pl.channels, c)
	b.pool, b.poolChan = pl, c
}

// Leave detaches a backend's channel, discarding its backlog — called on
// backend Stop/death, when the ring's restart epoch has moved on and any
// queued operations will be failed with EREMOTE by Reconnect, not answered.
// The backend's later operations are dropped.
func (pl *Pool) Leave(b *Backend) {
	c := b.poolChan
	if b.pool != pl || c == nil {
		return
	}
	i := slices.Index(pl.channels, c)
	pl.Dropped += uint64(c.q.Len())
	pl.queued -= c.q.Len()
	pl.channels = slices.Delete(pl.channels, i, i+1)
	if pl.rr > i {
		pl.rr--
	}
	if pl.rr == len(pl.channels) {
		pl.rr = 0
	}
	b.poolChan = nil
}

// Stop wakes every parked handler so it exits; a busy one exits when its
// operation finishes. Queued operations are dropped; as with backend Stop,
// in-flight ones finish but discard their ring writes if the epoch moved.
func (pl *Pool) Stop() {
	pl.stopped = true
	for _, h := range pl.idle {
		h.wake.Trigger()
	}
	pl.idle = nil
}

// enqueue takes one decoded operation from a channel's dispatcher. Capped,
// the operation is queued, and a parked or new handler is woken to pop one;
// uncapped, the operation is handed to that handler directly.
func (pl *Pool) enqueue(b *Backend, req request) {
	c := b.poolChan
	if pl.stopped || b.pool != pl || c == nil {
		// Channel never joined (or already left): the operation belongs to
		// a ring generation this pool will not serve.
		pl.Dropped++
		return
	}
	pl.Enqueued++
	if pl.cap > 0 { // an uncapped set is the paper's thread per operation
		trace.Get(pl.driverK.Env).Add("cvd.pool.enqueued", 1)
		c.q.Push(req)
		pl.queued++
		pl.MaxDepth = max(pl.MaxDepth, pl.queued)
		b = nil // the woken handler pops the queue
	}
	if n := len(pl.idle); n > 0 {
		h := pl.idle[n-1]
		pl.idle = pl.idle[:n-1]
		h.b, h.req = b, req
		h.wake.Trigger()
	} else if pl.cap == 0 || pl.handlers < pl.cap {
		name := "cvd-op-" + strconv.Itoa(pl.handlers) + "@" + pl.driverK.Name
		pl.handlers++
		h := &handler{wake: pl.driverK.Env.NewEvent(), b: b, req: req}
		pl.driverK.Env.Spawn(name, func(sp *sim.Proc) { pl.serve(sp, h) })
	}
}

// next pops the next operation in round-robin order, or reports none
// pending: the first channel at or after the cursor with work queued serves
// one operation, and the cursor moves past it — so while others wait, no
// channel is served twice in a row, and an empty channel forfeits its turn.
//
// With nothing queued it returns at once: a full scan would bring the cursor
// back to where it started, so skipping it changes no later choice.
func (pl *Pool) next() (*Backend, request, bool) {
	if pl.queued == 0 {
		return nil, request{}, false
	}
	n := len(pl.channels)
	for i := 0; i < n; i++ {
		c := pl.channels[pl.rr]
		pl.rr = (pl.rr + 1) % n
		if c.q.Len() > 0 {
			pl.queued--
			return c.b, c.q.Pop(), true
		}
	}
	return nil, request{}, false
}

// serve is one handler thread: it runs the operation handed to it, or pops
// one, then pops queued ones until none is left, then parks on its own event
// until the next wake-up, or until Stop.
func (pl *Pool) serve(sp *sim.Proc, h *handler) {
	for !pl.stopped {
		b, req, ok := h.b, h.req, h.b != nil
		h.b = nil
		if !ok {
			b, req, ok = pl.next()
		}
		for ; ok && !pl.stopped; b, req, ok = pl.next() {
			if !b.ringCurrent() {
				// The channel died between enqueue and pickup; its slots now
				// belong to a successor backend.
				pl.Dropped++
				continue
			}
			pl.Served++
			if pl.cap > 0 {
				trace.Get(pl.driverK.Env).Add("cvd.pool.served", 1)
			}
			if pl.onServe != nil {
				pl.onServe(b, req)
			}
			b.handle(sp, &h.op, req)
		}
		if pl.stopped {
			return
		}
		h.wake.Reset()
		pl.idle = append(pl.idle, h)
		sp.Wait(h.wake)
	}
}
