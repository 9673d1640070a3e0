package sim

import (
	"math/rand"
	"testing"
)

// calendarRun drives a calendar the way Env does and checks it against a
// sorted reference: plain pushes, WaitTimeout deadlines (which sort after
// the deadline queue's tail or before it), supersessions of a process's
// pending deadline (a later wake-up, or the process finishing), and pops
// that discard stale items without moving the clock.
type calendarRun struct {
	tb      testing.TB
	c       calendar
	seq     uint64
	now     Time
	procs   [4]*Proc
	pending []item          // pushed and not popped, live or stale
	queued  map[uint64]bool // seqs that joined the deadline queue
	inHeap  map[uint64]bool // seqs of queued deadlines seen in the heap
	cases   calendarCases
}

// calendarCases counts what a run exercised, for the property test to
// require.
type calendarCases struct {
	queueOnly, heapOnly, superseded, promotedAmongDue int
}

func newCalendarRun(tb testing.TB) *calendarRun {
	r := &calendarRun{tb: tb, queued: map[uint64]bool{}, inHeap: map[uint64]bool{}}
	for i := range r.procs {
		r.procs[i] = &Proc{}
	}
	return r
}

// step applies one operation, chosen by op, with arg picking its time and
// process.
func (r *calendarRun) step(op, arg byte) {
	switch op % 4 {
	case 0: // a callback, due now or a little later
		it := item{at: r.now + Time(arg%4), seq: r.seq}
		r.seq++
		r.c.push(it, r.now)
		r.pending = append(r.pending, it)
	case 1: // a deadline, superseding the process's pending resume
		p := r.procs[arg%4]
		it := item{at: r.now + 1 + Time(arg/4%4), seq: r.seq}
		r.seq++
		p.resumeGen++
		it.p, it.gen = p, p.resumeGen
		r.c.deadline(it)
		r.pending = append(r.pending, it)
		if q := &r.c.tmo; q.Len() > 0 && q.buf[len(q.buf)-1].seq == it.seq {
			r.queued[it.seq] = true
			if q.Len() > 1 {
				r.cases.queueOnly++
			}
		} else {
			r.cases.heapOnly++
		}
	case 2: // the event fires first, or the process finishes
		i := arg % 4
		if arg&4 == 0 {
			r.procs[i].resumeGen++
		} else {
			r.procs[i].finished = true
			r.procs[i] = &Proc{}
		}
		r.cases.superseded++
	case 3:
		r.pop()
	}
	r.checkHeap()
}

// pop discards stale items off the top, as Env.next does, then pops the
// earliest live item, which must be the reference's earliest live item.
func (r *calendarRun) pop() {
	for {
		top, due := r.c.top()
		if top == nil {
			for _, it := range r.pending {
				if !it.stale() {
					r.tb.Fatalf("calendar empty with %+v pending", it)
				}
			}
			r.pending = r.pending[:0]
			return
		}
		it := *top
		head := r.c.tmo.Len() > 0 && r.c.tmo.buf[r.c.tmo.head].seq == it.seq
		if due && head {
			r.tb.Fatalf("deadline %+v popped off the due-now queue", it)
		}
		r.c.pop(due)
		if it.stale() {
			continue
		}
		earliest := -1
		for i := range r.pending {
			if !r.pending[i].stale() && (earliest < 0 || r.pending[i].before(&r.pending[earliest])) {
				earliest = i
			}
		}
		if earliest < 0 {
			r.tb.Fatalf("popped %+v, but nothing live is pending", it)
		}
		if want := r.pending[earliest]; want.at != it.at || want.seq != it.seq {
			r.tb.Fatalf("popped (at %v, seq %d), want (at %v, seq %d)", it.at, it.seq, want.at, want.seq)
		}
		r.pending = append(r.pending[:earliest], r.pending[earliest+1:]...)
		r.now = it.at
		if q := &r.c.tmo; head && q.Len() > 0 && q.buf[q.head].at == r.now && r.c.due.Len() > 0 {
			r.cases.promotedAmongDue++
		}
		return
	}
}

// checkHeap requires that the deadline queue's head, and no other queued
// deadline, is in the heap, and that a queued deadline reached the heap only
// while it was live.
func (r *calendarRun) checkHeap() {
	q := &r.c.tmo
	inQueue := 0
	for i := range r.c.heap {
		it := &r.c.heap[i]
		if !r.queued[it.seq] {
			continue
		}
		if q.Len() == 0 || it.seq != q.buf[q.head].seq {
			r.tb.Fatalf("queued deadline (at %v, seq %d) is in the heap but does not head the deadline queue", it.at, it.seq)
		}
		inQueue++
		if !r.inHeap[it.seq] {
			if it.stale() {
				r.tb.Fatalf("superseded deadline (at %v, seq %d) went into the heap", it.at, it.seq)
			}
			r.inHeap[it.seq] = true
		}
	}
	if want := min(q.Len(), 1); inQueue != want {
		r.tb.Fatalf("%d deadline-queue items in the heap, want %d", inQueue, want)
	}
}

// drain pops until the calendar is empty.
func (r *calendarRun) drain() {
	for len(r.pending) > 0 {
		r.pop()
	}
	if top, _ := r.c.top(); top != nil || r.c.tmo.Len() > 0 {
		r.tb.Fatalf("calendar not empty after draining: top %v, %d queued deadlines", top, r.c.tmo.Len())
	}
}

// Live items pop in (at, seq) order whichever of the calendar's parts holds
// them, and the deadline queue keeps only its head in the heap, including
// when the next head is promoted at an instant that due-now items, with newer
// seqs, already wait at.
func TestCalendarDeadlineQueue(t *testing.T) {
	var total calendarCases
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newCalendarRun(t)
		for op := 0; op < 2000; op++ {
			// Weighted: deadlines and pops most often, as under spinning.
			r.step([]byte{0, 1, 1, 2, 3, 3}[rng.Intn(6)], byte(rng.Intn(256)))
		}
		r.drain()
		total.queueOnly += r.cases.queueOnly
		total.heapOnly += r.cases.heapOnly
		total.superseded += r.cases.superseded
		total.promotedAmongDue += r.cases.promotedAmongDue
	}
	if total.queueOnly == 0 || total.heapOnly == 0 || total.superseded == 0 || total.promotedAmongDue == 0 {
		t.Fatalf("deadlines queued behind the head %d, filed in the heap alone %d, supersessions %d, heads promoted among due-now items %d; want each > 0",
			total.queueOnly, total.heapOnly, total.superseded, total.promotedAmongDue)
	}
}

// FuzzCalendarOrder decodes calendar operations from pairs of bytes (the
// operation, then its time and process) and checks every live pop against
// the sorted reference.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{1, 0, 1, 5, 1, 9, 2, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 12, 1, 1, 0, 0, 3, 0, 0, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 3, 2, 7, 1, 3, 3, 0, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newCalendarRun(t)
		for i := 0; i+1 < len(ops); i += 2 {
			r.step(ops[i], ops[i+1])
		}
		r.drain()
	})
}
