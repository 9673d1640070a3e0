package cvd

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/perf"
	"paradice/internal/sim"
)

// poolRig is a driver VM with a worker pool serving two guest channels to
// the same test device — the smallest topology where the pool's fairness
// and per-channel ordering contracts are observable.
type poolRig struct {
	env     *sim.Env
	pool    *Pool
	driverK *kernel.Kernel
	guests  [2]*kernel.Kernel
	fes     [2]*Frontend
	bes     [2]*Backend
}

func newPoolRig(t *testing.T, workers int) *poolRig {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	h := hv.New(env, 256<<20)
	driverVM, err := h.CreateVM("driver", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	driverK := kernel.New("driver", kernel.Linux, env, driverVM.Space, driverVM.RAM)
	drv := &testDriver{k: driverK, wq: driverK.NewWaitQueue()}
	driverK.RegisterDevice("/dev/testdev", drv, drv)
	pool := NewPool(driverK, workers)

	r := &poolRig{env: env, pool: pool, driverK: driverK}
	for i, name := range []string{"guest0", "guest1"} {
		vm, err := h.CreateVM(name, 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(name, kernel.Linux, env, vm.Space, vm.RAM)
		fe, be, err := Connect(Config{
			HV: h, GuestVM: vm, GuestK: k,
			DriverVM: driverVM, DriverK: driverK,
			DevicePath: "/dev/testdev", Mode: Polling,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool.Join(be)
		r.guests[i], r.fes[i], r.bes[i] = k, fe, be
	}
	return r
}

// Per-channel FIFO: however many workers race over the queues, one
// channel's operations must be STARTED in post order — the same guarantee
// the thread-per-op dispatcher gives (it spawns handlers in slot-scan
// order). seq is the frontend's monotonic post counter, so the serve-order
// trace per backend must be strictly increasing.
func TestPoolPerChannelFIFO(t *testing.T) {
	r := newPoolRig(t, 3)
	type serve struct {
		be  *Backend
		seq uint32
	}
	var serves []serve
	r.pool.onServe = func(b *Backend, req request) {
		serves = append(serves, serve{b, req.seq})
	}

	for gi := 0; gi < 2; gi++ {
		gi := gi
		p, err := r.guests[gi].NewProcess("burst")
		if err != nil {
			t.Fatal(err)
		}
		// Several tasks per guest so posts from one channel overlap in the
		// ring while the pool is backed up.
		for ti := 0; ti < 3; ti++ {
			p.SpawnTask("t", func(tk *kernel.Task) {
				fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
				if err != nil {
					t.Error(err)
					return
				}
				buf, _ := p.Alloc(256)
				for n := 0; n < 20; n++ {
					if _, err := tk.Write(fd, buf, 256); err != nil {
						t.Error(err)
						return
					}
				}
				tk.Close(fd)
			})
		}
	}
	r.env.Run()

	if r.pool.Served == 0 {
		t.Fatal("pool served nothing — operations bypassed it")
	}
	last := map[*Backend]uint32{}
	for i, s := range serves {
		if prev, seen := last[s.be]; seen && s.seq <= prev {
			t.Fatalf("serve %d: channel %s seq %d after %d — per-channel FIFO broken",
				i, s.be.guestVM.Name, s.seq, prev)
		}
		last[s.be] = s.seq
	}
	if len(last) != 2 {
		t.Fatalf("served %d channels, want 2", len(last))
	}
}

// Round-robin: with both channels backlogged, the serve trace must not run
// consecutive operations from one channel — the hot channel cannot
// monopolize the workers.
func TestPoolRoundRobinBound(t *testing.T) {
	r := newPoolRig(t, 1) // one worker: the serve trace is the schedule
	var trace []*Backend
	r.pool.onServe = func(b *Backend, _ request) { trace = append(trace, b) }

	for gi := 0; gi < 2; gi++ {
		gi := gi
		p, err := r.guests[gi].NewProcess("flood")
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < 4; ti++ {
			p.SpawnTask("t", func(tk *kernel.Task) {
				fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
				if err != nil {
					t.Error(err)
					return
				}
				buf, _ := p.Alloc(64)
				for n := 0; n < 25; n++ {
					if _, err := tk.Write(fd, buf, 64); err != nil {
						t.Error(err)
						return
					}
				}
				tk.Close(fd)
			})
		}
	}
	r.env.Run()

	// Only the steady middle of the trace is load-bearing: while BOTH
	// channels hold backlog, runs are bounded by the round. (Head and
	// tail, where one channel hasn't started or has finished, are exempt —
	// a lone channel runs freely.)
	both := map[*Backend]bool{}
	firstBoth, lastBoth := -1, -1
	for i, b := range trace {
		both[b] = true
		if len(both) == 2 {
			if firstBoth < 0 {
				firstBoth = i
			}
			lastBoth = i
		}
	}
	if firstBoth < 0 {
		t.Fatal("trace never contains both channels")
	}
	run, maxRun := 0, 0
	for i := firstBoth; i < lastBoth; i++ {
		if i > firstBoth && trace[i] == trace[i-1] {
			run++
		} else {
			run = 1
		}
		if run > maxRun {
			maxRun = run
		}
	}
	// The other channel's queue can drain mid-run and refill (pacing
	// gaps), which legally hands its turn back; allow one serve of slack
	// but catch monopolization.
	if maxRun > 2 {
		t.Fatalf("max consecutive serves from one channel = %d, want <= 2", maxRun)
	}
	if r.pool.MaxDepth == 0 {
		t.Fatal("queues never backed up — the bound was not exercised")
	}
}

// Leave drops a departing channel's backlog and the stats stay coherent:
// everything enqueued is eventually served or dropped, never lost.
func TestPoolLeaveDropsBacklog(t *testing.T) {
	r := newPoolRig(t, 1)
	p, err := r.guests[0].NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	p.SpawnTask("t", func(tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := p.Alloc(64)
		for n := 0; n < 10; n++ {
			tk.Write(fd, buf, 64)
		}
		tk.Close(fd)
	})
	r.env.Run()
	served := r.pool.Served

	// Stop the channel with operations never posted again: its queue must
	// be discarded, not served against a dead ring.
	r.bes[0].Stop()
	if r.bes[0].poolChan != nil {
		t.Fatal("stopped backend still attached to the pool")
	}
	r.env.Run()
	if r.pool.Served != served {
		t.Fatalf("pool served %d more ops after the channel left", r.pool.Served-served)
	}
	if got := r.pool.Enqueued - r.pool.Served - r.pool.Dropped; got != 0 {
		t.Fatalf("stats leak: enqueued %d != served %d + dropped %d",
			r.pool.Enqueued, r.pool.Served, r.pool.Dropped)
	}
}

// refPool is the pool's bookkeeping as it was before the running count and
// the per-backend channel pointer: every enqueue searches the channel list,
// depth sums the queues, and next always scans from the cursor.
type refPool struct {
	channels []*refChan
	rr       int
	enqueued uint64
	dropped  uint64
	maxDepth int
}

type refChan struct {
	b *Backend
	q []request
}

func (pl *refPool) join(b *Backend) {
	for _, c := range pl.channels {
		if c.b == b {
			return
		}
	}
	pl.channels = append(pl.channels, &refChan{b: b})
}

func (pl *refPool) leave(b *Backend) {
	for i, c := range pl.channels {
		if c.b == b {
			pl.dropped += uint64(len(c.q))
			pl.channels = append(pl.channels[:i], pl.channels[i+1:]...)
			if pl.rr > i {
				pl.rr--
			}
			if len(pl.channels) > 0 {
				pl.rr %= len(pl.channels)
			} else {
				pl.rr = 0
			}
			return
		}
	}
}

func (pl *refPool) enqueue(b *Backend, req request) {
	for _, c := range pl.channels {
		if c.b == b {
			c.q = append(c.q, req)
			pl.enqueued++
			pl.maxDepth = max(pl.maxDepth, pl.depth())
			return
		}
	}
	pl.dropped++
}

func (pl *refPool) depth() int {
	n := 0
	for _, c := range pl.channels {
		n += len(c.q)
	}
	return n
}

func (pl *refPool) next() (*Backend, request, bool) {
	n := len(pl.channels)
	for i := 0; i < n; i++ {
		c := pl.channels[pl.rr]
		pl.rr = (pl.rr + 1) % n
		if len(c.q) > 0 {
			req := c.q[0]
			c.q = c.q[1:]
			return c.b, req, true
		}
	}
	return nil, request{}, false
}

// TestPoolBookkeepingMatchesReference drives the pool's queues directly —
// no workers, no rings — through seeded random joins, enqueues, dequeues and
// leaves, and checks after every step that the running depth is the sum of
// the queues and that every dequeue, cursor position and counter equals the
// reference scan's.
func TestPoolBookkeepingMatchesReference(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// One handler, busy throughout: every operation queues.
		pl := &Pool{driverK: &kernel.Kernel{Env: env}, cap: 1, handlers: 1}
		ref := &refPool{}
		bes := make([]*Backend, 1+rng.Intn(6))
		for i := range bes {
			bes[i] = &Backend{}
		}
		seq := uint32(0)
		for step := 0; step < 400; step++ {
			b := bes[rng.Intn(len(bes))]
			switch k := rng.Intn(20); {
			case k < 2:
				pl.Join(b)
				ref.join(b)
			case k < 3:
				pl.Leave(b)
				ref.leave(b)
			case k < 12:
				seq++
				req := request{slot: rng.Intn(slotCount), seq: seq}
				pl.enqueue(b, req)
				ref.enqueue(b, req)
			default:
				gb, greq, gok := pl.next()
				wb, wreq, wok := ref.next()
				if gb != wb || greq != wreq || gok != wok {
					t.Fatalf("seed %d step %d: next = %p, seq %d, %v; reference %p, seq %d, %v",
						seed, step, gb, greq.seq, gok, wb, wreq.seq, wok)
				}
			}
			sum := 0
			for _, c := range pl.channels {
				sum += c.q.Len()
			}
			if pl.queued != sum || sum != ref.depth() {
				t.Fatalf("seed %d step %d: depth %d, queues hold %d, reference %d", seed, step, pl.queued, sum, ref.depth())
			}
			if pl.rr != ref.rr || pl.Enqueued != ref.enqueued || pl.Dropped != ref.dropped || pl.MaxDepth != ref.maxDepth {
				t.Fatalf("seed %d step %d: cursor %d, enqueued %d, dropped %d, max depth %d; reference %d, %d, %d, %d",
					seed, step, pl.rr, pl.Enqueued, pl.Dropped, pl.MaxDepth, ref.rr, ref.enqueued, ref.dropped, ref.maxDepth)
			}
			for _, b := range bes {
				joined := slices.ContainsFunc(pl.channels, func(c *poolChan) bool { return c.b == b })
				if (b.poolChan != nil) != joined {
					t.Fatalf("seed %d step %d: backend joined %v with channel %p", seed, step, joined, b.poolChan)
				}
			}
		}
	}
}

// blockReaders starts n guest tasks that each open the test device and read
// one byte from it, and runs until every read has been forwarded: with the
// driver's store empty, each blocks in the driver and holds its handler.
func blockReaders(t *testing.T, r *rig, n int) {
	t.Helper()
	app, err := r.guestK.NewProcess("readers")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		app.SpawnTask("reader", func(tk *kernel.Task) {
			fd, err := tk.Open("/dev/testdev", devfile.ORdOnly)
			if err != nil {
				t.Error(err)
				return
			}
			buf, _ := app.Alloc(1)
			if _, err := tk.Read(fd, buf, 1); err != nil {
				t.Error(err)
			}
			tk.Close(fd)
		})
	}
	r.env.RunUntil(r.env.Now().Add(sim.Millisecond))
}

// releaseReaders writes n bytes into the driver's store from a driver-VM
// process, which wakes the blocked readers, and runs the calendar out.
func releaseReaders(t *testing.T, r *rig, n int) {
	t.Helper()
	w, err := r.driverK.NewProcess("local-writer")
	if err != nil {
		t.Fatal(err)
	}
	w.SpawnTask("w", func(tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.OWrOnly)
		src, _ := w.Alloc(n)
		if _, err := tk.Write(fd, src, n); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
}

// The handler set spawns a thread only when no handler is parked: K
// operations blocked in the driver at once take exactly K handlers
// (uncapped), or the cap's worth while the rest queue, and 1000 sequential
// operations afterwards spawn none.
func TestHandlersBoundedByConcurrency(t *testing.T) {
	const blocked = 5
	for _, c := range []struct{ workers, want int }{{0, blocked}, {2, 2}} {
		r := newRig(t, Interrupts, kernel.Linux)
		pl := NewPool(r.driverK, c.workers)
		pl.Join(r.be)
		blockReaders(t, r, blocked)
		if pl.handlers != c.want || pl.queued != blocked-c.want {
			t.Fatalf("workers %d: %d reads blocked with %d handlers and %d queued, want %d and %d",
				c.workers, blocked, pl.handlers, pl.queued, c.want, blocked-c.want)
		}
		releaseReaders(t, r, blocked)
		r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
			fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
			for i := 0; i < 1000; i++ {
				if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
		if pl.handlers != c.want || len(pl.idle) != c.want {
			t.Fatalf("workers %d: %d handlers, %d parked after 1000 sequential ops, want %d",
				c.workers, pl.handlers, len(pl.idle), c.want)
		}
		if want := uint64(blocked*3 + 1001); pl.Served != want {
			t.Fatalf("workers %d: served %d ops, want %d", c.workers, pl.Served, want)
		}
	}
}

// handlerResumes counts the resumes of each CVD handler thread.
type handlerResumes map[string]int

func (handlerResumes) SchedCallback(sim.Time) {}

func (h handlerResumes) SchedResume(_ sim.Time, proc string) {
	if strings.HasPrefix(proc, "cvd-op-") {
		h[proc]++
	}
}

// A hand-off wakes the one handler it goes to: with four handlers parked,
// a forwarded operation resumes exactly one of them, however often.
func TestHandOffWakesOneHandler(t *testing.T) {
	for _, workers := range []int{0, 4} {
		r := newRig(t, Interrupts, kernel.Linux)
		pl := NewPool(r.driverK, workers)
		pl.Join(r.be)
		blockReaders(t, r, 4)
		releaseReaders(t, r, 4)
		if len(pl.idle) != 4 {
			t.Fatalf("workers %d: %d handlers parked, want 4", workers, len(pl.idle))
		}
		resumed := handlerResumes{}
		r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
			fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
			r.env.Observer = resumed
			if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
				t.Fatal(err)
			}
			r.env.Observer = nil
		})
		if len(resumed) != 1 {
			t.Fatalf("workers %d: one operation resumed handlers %v, want one", workers, resumed)
		}
	}
}

// Two operations of one channel reach a set at its cap of two, with one
// handler parked and the other finishing at that very instant, after them:
// the first wakes the parked handler, and the finisher runs before it. The
// second must not start before the first.
func TestQueuedOpsStartInPostOrder(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	pl := NewPool(r.driverK, 2)
	pl.Join(r.be)
	blockReaders(t, r, 2)
	releaseReaders(t, r, 2)
	var started []uint32
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		pl.onServe = func(b *Backend, req request) {
			started = append(started, req.seq)
			if len(started) > 1 {
				return
			}
			// The ioctl below just started; its handler finishes after the
			// dispatch, completion and response-interrupt charges.
			r.env.Spawn("arrivals", func(p *sim.Proc) {
				p.Sleep(perf.CostPost + perf.CostComplete + perf.CostHypercall)
				for seq := uint32(1001); seq <= 1002; seq++ {
					pl.enqueue(b, request{slot: slotCount - 1 - int(seq%2), seq: seq, op: opIoctl})
				}
				if len(pl.idle) != 0 || pl.queued != 2 {
					t.Errorf("arrivals: %d handlers parked and %d ops queued, want 0 and 2", len(pl.idle), pl.queued)
				}
			})
		}
		if _, err := tk.Ioctl(fd, tdNoop, 0); err != nil {
			t.Fatal(err)
		}
	})
	if len(started) != 3 || started[1] != 1001 || started[2] != 1002 {
		t.Fatalf("start order %v, want the ioctl, then 1001, then 1002", started)
	}
}
