package input_test

// Tests for the input device + evdev driver pair: event queueing and fan-out,
// the evdev read path (blocking, partial, multi-event, wire format), queue
// overflow accounting, and driver detach on device reset.

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/device/input"
	"paradice/internal/driver/evdev"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

const evPath = "/dev/input/event0"

// evdev's per-reader queue cap (a driver-internal constant; the overflow
// test pins its observable effect).
const evMaxQueued = 256

type evRig struct {
	env *sim.Env
	k   *kernel.Kernel
	dev *input.Device
	drv *evdev.Driver
}

func newEvRig(t testing.TB, irqLatency sim.Duration) *evRig {
	t.Helper()
	env := sim.NewEnv()
	phys := mem.NewPhysMem()
	const ram = 8 << 20
	alloc := phys.NewAllocator("ram", 0x1000_0000, ram)
	base, err := alloc.AllocPages(ram / mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ept := mem.NewEPT()
	if err := ept.MapRange(0, base, ram/mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	space := &mem.GuestSpace{Phys: phys, EPT: ept}
	k := kernel.New("testvm", kernel.Linux, env, space, ram)
	dev := input.New(env, "mouse", irqLatency)
	drv := evdev.Attach(k, dev, evPath)
	return &evRig{env: env, k: k, dev: dev, drv: drv}
}

// open runs a task that opens the device and returns the fd (readers only
// queue events that arrive after their open).
func (r *evRig) open(t testing.TB, p *kernel.Process, flags devfile.OpenFlags) int {
	t.Helper()
	fd := -1
	p.SpawnTask("opener", func(tk *kernel.Task) {
		var err error
		fd, err = tk.Open(evPath, flags)
		if err != nil {
			t.Errorf("open: %v", err)
		}
	})
	r.env.Run()
	if fd < 0 {
		t.Fatal("open did not run")
	}
	return fd
}

// A blocking read parks until the device reports, then returns the event in
// wire format with the device's report timestamp.
func TestBlockingReadWakesOnEvent(t *testing.T) {
	const lat = 10 * sim.Microsecond
	r := newEvRig(t, lat)
	p, _ := r.k.NewProcess("reader")
	fd := r.open(t, p, devfile.ORdOnly)

	injectAt := sim.Time(500 * sim.Microsecond)
	r.dev.InjectAt(injectAt, input.EvRel, 0 /* REL_X */, 7)

	var got input.Event
	var wokeAt sim.Time
	p.SpawnTask("reader", func(tk *kernel.Task) {
		dst, _ := p.Alloc(evdev.EventSize)
		n, err := tk.Read(fd, dst, evdev.EventSize)
		if err != nil || n != evdev.EventSize {
			t.Errorf("read: n=%d err=%v", n, err)
			return
		}
		wokeAt = tk.Sim().Now()
		buf := make([]byte, evdev.EventSize)
		if err := p.Mem.Read(dst, buf); err != nil {
			t.Error(err)
			return
		}
		got = evdev.DecodeEvent(buf)
	})
	r.env.Run()
	if got.Type != input.EvRel || got.Code != 0 || got.Value != 7 {
		t.Fatalf("decoded event = %+v", got)
	}
	// The event is stamped when the driver sees it: inject time + interrupt
	// delivery latency. The reader can only have woken after that.
	if got.At != injectAt.Add(lat) {
		t.Fatalf("event stamped %v, want %v", got.At, injectAt.Add(lat))
	}
	if wokeAt < got.At {
		t.Fatalf("reader woke at %v, before the event at %v", wokeAt, got.At)
	}
}

// Queued events drain in arrival order, a short buffer takes only as many
// events as fit, and the remainder survives for the next read.
func TestPartialReadsPreserveOrder(t *testing.T) {
	r := newEvRig(t, 0)
	p, _ := r.k.NewProcess("reader")
	fd := r.open(t, p, devfile.ORdOnly)

	for i := 0; i < 5; i++ {
		r.dev.Inject(input.EvKey, uint16(30+i), 1)
	}
	r.env.Run() // deliver all five

	var codes []uint16
	p.SpawnTask("reader", func(tk *kernel.Task) {
		dst, _ := p.Alloc(5 * evdev.EventSize)
		// First read: room for two events (plus slack that is not a full
		// record, which the driver must ignore).
		n, err := tk.Read(fd, dst, 2*evdev.EventSize+7)
		if err != nil || n != 2*evdev.EventSize {
			t.Errorf("first read: n=%d err=%v", n, err)
			return
		}
		// Second read: room for the remaining three and more.
		n2, err := tk.Read(fd, dst+mem.GuestVirt(n), 5*evdev.EventSize)
		if err != nil || n2 != 3*evdev.EventSize {
			t.Errorf("second read: n=%d err=%v", n2, err)
			return
		}
		buf := make([]byte, n+n2)
		if err := p.Mem.Read(dst, buf); err != nil {
			t.Error(err)
			return
		}
		for off := 0; off < len(buf); off += evdev.EventSize {
			codes = append(codes, evdev.DecodeEvent(buf[off:]).Code)
		}
	})
	r.env.Run()
	want := []uint16{30, 31, 32, 33, 34}
	if len(codes) != len(want) {
		t.Fatalf("codes = %v", codes)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
}

// A buffer smaller than one event record is EINVAL; an empty queue with
// O_NONBLOCK is EAGAIN.
func TestShortBufferAndNonblock(t *testing.T) {
	r := newEvRig(t, 0)
	p, _ := r.k.NewProcess("reader")
	fd := r.open(t, p, devfile.ORdOnly|devfile.ONonblock)

	p.SpawnTask("empty", func(tk *kernel.Task) {
		dst, _ := p.Alloc(evdev.EventSize)
		if _, err := tk.Read(fd, dst, evdev.EventSize); !kernel.IsErrno(err, kernel.EAGAIN) {
			t.Errorf("nonblocking read on empty queue: %v, want EAGAIN", err)
		}
	})
	r.env.Run()

	r.dev.Inject(input.EvKey, 30, 1)
	r.env.Run()
	p.SpawnTask("short", func(tk *kernel.Task) {
		dst, _ := p.Alloc(evdev.EventSize)
		if _, err := tk.Read(fd, dst, evdev.EventSize-1); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Errorf("short-buffer read: %v, want EINVAL", err)
		}
		// The undersized read consumed nothing: a proper read still sees it.
		n, err := tk.Read(fd, dst, evdev.EventSize)
		if err != nil || n != evdev.EventSize {
			t.Errorf("follow-up read: n=%d err=%v", n, err)
		}
	})
	r.env.Run()
}

// A reader that stops draining loses exactly the events past the queue cap —
// counted in Dropped — and the queued ones all arrive.
func TestQueueOverflowDropsAndCounts(t *testing.T) {
	r := newEvRig(t, 0)
	p, _ := r.k.NewProcess("reader")
	fd := r.open(t, p, devfile.ORdOnly|devfile.ONonblock)

	const injected = evMaxQueued + 50
	for i := 0; i < injected; i++ {
		r.dev.Inject(input.EvRel, 1 /* REL_Y */, int32(i))
	}
	r.env.Run()
	if r.drv.Dropped != injected-evMaxQueued {
		t.Fatalf("Dropped = %d, want %d", r.drv.Dropped, injected-evMaxQueued)
	}

	drained := 0
	var first, last input.Event
	p.SpawnTask("drain", func(tk *kernel.Task) {
		const batch = 32
		dst, _ := p.Alloc(batch * evdev.EventSize)
		buf := make([]byte, batch*evdev.EventSize)
		for {
			n, err := tk.Read(fd, dst, batch*evdev.EventSize)
			if kernel.IsErrno(err, kernel.EAGAIN) {
				return
			}
			if err != nil {
				t.Errorf("drain read: %v", err)
				return
			}
			if err := p.Mem.Read(dst, buf[:n]); err != nil {
				t.Error(err)
				return
			}
			for off := 0; off < n; off += evdev.EventSize {
				ev := evdev.DecodeEvent(buf[off:])
				if drained == 0 {
					first = ev
				}
				last = ev
				drained++
			}
		}
	})
	r.env.Run()
	if drained != evMaxQueued {
		t.Fatalf("drained %d events, want %d", drained, evMaxQueued)
	}
	// Overflow drops the NEWEST events: the queue keeps 0..cap-1.
	if first.Value != 0 || last.Value != evMaxQueued-1 {
		t.Fatalf("kept values %d..%d, want 0..%d", first.Value, last.Value, evMaxQueued-1)
	}
}

// Every reader gets its own copy of each event; closing detaches a reader's
// queue.
func TestFanOutToMultipleReaders(t *testing.T) {
	r := newEvRig(t, 0)
	p, _ := r.k.NewProcess("app")
	fd1 := r.open(t, p, devfile.ORdOnly|devfile.ONonblock)
	fd2 := r.open(t, p, devfile.ORdOnly|devfile.ONonblock)

	r.dev.Inject(input.EvKey, 57, 1)
	r.env.Run()

	readOne := func(tk *kernel.Task, fd int) (input.Event, bool) {
		dst, _ := p.Alloc(evdev.EventSize)
		n, err := tk.Read(fd, dst, evdev.EventSize)
		if err != nil || n != evdev.EventSize {
			return input.Event{}, false
		}
		buf := make([]byte, evdev.EventSize)
		_ = p.Mem.Read(dst, buf)
		return evdev.DecodeEvent(buf), true
	}
	p.SpawnTask("readers", func(tk *kernel.Task) {
		e1, ok1 := readOne(tk, fd1)
		e2, ok2 := readOne(tk, fd2)
		if !ok1 || !ok2 || e1.Code != 57 || e2.Code != 57 {
			t.Errorf("fan-out: %+v/%v %+v/%v", e1, ok1, e2, ok2)
		}
		if err := tk.Close(fd2); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()

	// After fd2 closed, only fd1 queues the next event.
	r.dev.Inject(input.EvKey, 58, 1)
	r.env.Run()
	p.SpawnTask("after-close", func(tk *kernel.Task) {
		if e, ok := readOne(tk, fd1); !ok || e.Code != 58 {
			t.Errorf("fd1 after close: %+v/%v", e, ok)
		}
	})
	r.env.Run()
	if r.drv.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", r.drv.Dropped)
	}
}

// Reset detaches the device from the driver (driver VM restart, §8): events
// injected while detached are lost on the floor — not queued, not counted as
// driver-level drops.
func TestResetDetachesDriver(t *testing.T) {
	r := newEvRig(t, 0)
	p, _ := r.k.NewProcess("reader")
	fd := r.open(t, p, devfile.ORdOnly|devfile.ONonblock)

	r.dev.Reset()
	r.dev.Inject(input.EvKey, 30, 1)
	r.env.Run()

	p.SpawnTask("reader", func(tk *kernel.Task) {
		dst, _ := p.Alloc(evdev.EventSize)
		if _, err := tk.Read(fd, dst, evdev.EventSize); !kernel.IsErrno(err, kernel.EAGAIN) {
			t.Errorf("read after reset: %v, want EAGAIN (event lost)", err)
		}
	})
	r.env.Run()
	if r.drv.Dropped != 0 {
		t.Fatalf("Dropped = %d; detached-device events are lost, not dropped", r.drv.Dropped)
	}
}
