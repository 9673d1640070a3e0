package cvd

import (
	"fmt"

	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Pool is a driver VM's shared backend worker pool: a bounded set of handler
// threads serving every CVD channel attached to that driver VM. Without a
// pool each forwarded operation gets its own thread (spawnHandler), which is
// faithful to the paper but lets one hot guest consume unbounded driver-VM
// threads; with a pool, per-channel dispatchers enqueue operations into
// per-channel FIFO queues and the workers drain them round-robin, one
// operation per channel per turn, so a guest at open-loop overload gets at
// most its round share of workers while a quiet guest's operations are picked
// up within one round.
//
// Ordering contract: operations of one channel are *started* in post order
// (the queue is FIFO and workers dequeue under a single scheduler token), the
// same guarantee the thread-per-op path gives. Operations of one channel may
// still complete out of order once started — that is the concurrency the
// paper's handler threads exist for.
//
// Workers are named "cvd-op-worker-<n>": the "cvd-op-" prefix keeps them
// inside the supervision contract — a panic in a pooled handler is consumed
// by the driver-VM supervisor exactly like a panic in a dedicated handler
// thread.
type Pool struct {
	driverK  *kernel.Kernel
	doorbell *sim.Event
	stopped  bool

	channels []*poolChan
	rr       int // round-robin cursor into channels
	queued   int // operations queued over all channels

	// onServe, when set, observes every dequeue in service order (test hook
	// for the per-channel FIFO contract). Runs in worker context before the
	// operation executes; must not block.
	onServe func(b *Backend, req request)

	// Stats observable by tests and the bench harness.
	Enqueued uint64 // operations handed to the pool
	Served   uint64 // operations a worker picked up
	Dropped  uint64 // stale operations discarded (channel left or ring epoch moved)
	MaxDepth int    // high-water mark of total queued operations
}

// poolChan is one channel's slice of the pool: its FIFO backlog.
type poolChan struct {
	b *Backend
	q sim.FIFO[request]
}

// NewPool creates a worker pool of the given size on the driver VM kernel
// and starts its workers.
func NewPool(driverK *kernel.Kernel, workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	pl := &Pool{
		driverK:  driverK,
		doorbell: driverK.Env.NewEvent("cvd-pool-" + driverK.Name),
	}
	for i := 0; i < workers; i++ {
		i := i
		driverK.Env.Spawn(fmt.Sprintf("cvd-op-worker-%d@%s", i, driverK.Name), func(p *sim.Proc) {
			pl.worker(p)
		})
	}
	return pl
}

// Join attaches a backend's channel to the pool. Channels are served in join
// order by the round-robin cursor. The backend's dispatcher starts routing
// operations here instead of spawning per-op threads.
func (pl *Pool) Join(b *Backend) {
	for _, c := range pl.channels {
		if c.b == b {
			return
		}
	}
	c := &poolChan{b: b}
	pl.channels = append(pl.channels, c)
	b.pool, b.poolChan = pl, c
}

// Leave detaches a backend's channel, discarding its backlog — called on
// backend Stop/death, when the ring's restart epoch has moved on and any
// queued operations will be failed with EREMOTE by Reconnect, not answered.
func (pl *Pool) Leave(b *Backend) {
	for i, c := range pl.channels {
		if c.b == b {
			pl.Dropped += uint64(c.q.Len())
			pl.queued -= c.q.Len()
			pl.channels = append(pl.channels[:i], pl.channels[i+1:]...)
			if pl.rr > i {
				pl.rr--
			}
			if len(pl.channels) > 0 {
				pl.rr %= len(pl.channels)
			} else {
				pl.rr = 0
			}
			break
		}
	}
	if b.pool == pl {
		b.pool, b.poolChan = nil, nil
	}
}

// Stop terminates the workers. Queued operations are dropped; as with
// backend Stop, in-flight ones finish but discard their ring writes if the
// epoch moved.
func (pl *Pool) Stop() {
	pl.stopped = true
	pl.doorbell.Trigger()
}

// enqueue appends one decoded operation to the backend's channel queue and
// wakes the workers. Called from the channel's dispatcher.
func (pl *Pool) enqueue(b *Backend, req request) {
	c := b.poolChan
	if b.pool != pl || c == nil {
		// Channel never joined (or already left): the operation belongs to
		// a ring generation this pool will not serve.
		pl.Dropped++
		return
	}
	c.q.Push(req)
	pl.queued++
	pl.Enqueued++
	pl.MaxDepth = max(pl.MaxDepth, pl.queued)
	trace.Get(pl.driverK.Env).Add("cvd.pool.enqueued", 1)
	pl.doorbell.Trigger()
}

// depth returns the operations queued over all channels.
func (pl *Pool) depth() int { return pl.queued }

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

// worker is one pooled handler thread: dequeue under the fairness policy,
// execute via the owning backend's handle, sleep on the shared doorbell when
// the queues drain (with the same reset-then-recheck pattern the dispatcher
// uses, so an enqueue racing the sleep is never lost).
func (pl *Pool) worker(p *sim.Proc) {
	for {
		if pl.stopped {
			return
		}
		b, req, ok := pl.next()
		if !ok {
			pl.doorbell.Reset()
			if pl.stopped {
				return
			}
			if pl.depth() > 0 {
				continue
			}
			p.Wait(pl.doorbell)
			continue
		}
		if !b.ringCurrent() {
			// The channel died between enqueue and pickup; its slots now
			// belong to a successor backend.
			pl.Dropped++
			continue
		}
		pl.Served++
		trace.Get(pl.driverK.Env).Add("cvd.pool.served", 1)
		if pl.onServe != nil {
			pl.onServe(b, req)
		}
		b.handle(p, req)
	}
}
