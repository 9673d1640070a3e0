package cvd

import (
	"fmt"
	"math/bits"
	"slices"

	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/ioctlan"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Frontend is the CVD frontend: it implements kernel.FileOps for a virtual
// device file in the guest, declaring each operation's legitimate memory
// operations in the guest's grant table and forwarding the operation through
// the shared ring page to the backend.
type Frontend struct {
	hv       *hv.Hypervisor
	guestVM  *hv.VM
	driverVM *hv.VM
	guestK   *kernel.Kernel
	ring     page
	grants   *grant.Table
	specs    map[devfile.IoctlCmd]*ioctlan.CmdSpec

	respEvents   [slotCount]*sim.Event
	nextFileID   uint16
	nextSeq      uint32
	ringGPA      mem.GuestPhys
	vecToBackend int
	vecResp      int
	vecNotif     int
	pollWQ       *kernel.WaitQueue
	fasyncFiles  []*kernel.File
	backend      *Backend

	// policy is the transport policy: mode, poll window, adaptive stance
	// (fed by posts), submission batching and SpinTime, the virtual time
	// requesters spent busy-polling for completions.
	policy

	// deadline bounds how long a forwarded operation may wait for its
	// response (0 or less = forever on the polled and the interrupt path
	// alike, the pre-supervision behavior). A request that outlives it fails
	// with ETIMEDOUT and its slot is abandoned — reclaimed when a late
	// response eventually lands or a Reconnect sweeps the ring.
	deadline sim.Duration
	// abandoned marks slots whose issuer timed out and left; the backend
	// may still be executing them, so they are not freed until the response
	// (or a Reconnect) arrives.
	abandoned [slotCount]bool
	// degraded fails every operation fast with ENODEV: the supervisor
	// exhausted its restart budget on this device and gave up (§8 recovery's
	// terminal state). Cleared by a successful driver-VM restart.
	degraded bool

	// Drain mode (planned driver-VM handover). While draining, in-flight
	// slots complete on the current backend but NEW posts park at the
	// frontend — queued on drainEvent, bounded by DefaultDrainBound —
	// instead of entering the ring or failing EREMOTE. EndDrain releases
	// every parked post against whichever backend then owns the ring: the
	// successor after a completed switch, the still-live predecessor after an
	// abort. Either way nothing is lost. The draining flag is frontend-local
	// and never crosses the ring, so hostile ring bytes cannot park or unpark
	// anyone.
	draining   bool
	drainEvent *sim.Event

	// Bulk-transfer fast path (grant-map cache). When enabled, every
	// read/write data buffer gets a long-lived bulk grant (one per file and
	// direction) kept alive across requests, and the requests carry
	// reqFlagMapHint so the backend serves them through its grant-map cache.
	// bulk tracks the live bulk grants; they are revoked when the buffer
	// changes and when the file is released — each revocation tears down the
	// backend's cached mapping in the same instant (grant.Table.OnRevoke).
	mapCache bool
	bulk     map[bulkKey]bulkGrant

	// Doorbell batching (interrupt-stance posts only): the pending set of
	// slots whose posts share the next doorbell, flushed by the policy's
	// size+deadline trigger. The flush publishes a submission batch
	// descriptor (hdrSubCount) and rings once, attributed to the rid the
	// oldest still-posted member's slot holds: its CURRENT occupant's, never
	// a RID whose slot was reclaimed and reposted inside the window.
	pending   []int
	inPending [slotCount]bool

	// QoS admission control (Config.Admission). admission maps a task's
	// QoS class to the ring occupancy at which that class stops being
	// admitted: a request whose class has a limit configured is refused
	// with EAGAIN — before claiming a slot — once the ring already holds
	// that many in-flight requests. Classes without an entry are admitted
	// until the ring itself is full (EBUSY). This is the backpressure that
	// keeps low-priority open-loop load from starving latency-critical
	// classes of the 100 shared slots. admitNames are the per-class trace
	// counter names, precomputed so the hot path never builds strings.
	admission  map[uint8]int
	admitNames map[uint8]string

	// Heartbeat state (driver-VM supervision): hbSeq is the last posted
	// heartbeat sequence, hbEvent fires when the backend's ack for it is
	// observed by the response ISR.
	hbSeq   uint32
	hbEvent *sim.Event

	// Stats for tests and benches.
	RoundTrips     uint64
	Rejected       uint64 // posts rejected because the queue was full
	Throttled      uint64 // posts refused by QoS admission control (EAGAIN)
	TimedOut       uint64 // requests failed by the per-request deadline
	FastFailed     uint64 // requests refused outright (dead backend / degraded)
	DoorbellIRQs   uint64 // doorbell inter-VM IRQs actually sent
	CoalescedKicks uint64 // posts that shared a flushed doorbell (batch size - 1 per flush)
	QueuedPosts    uint64 // posts parked at the frontend during a drain
	BatchFlushes   uint64 // doorbell flushes sent (each covers >= 1 posted slots)
	ModeSwitches   uint64 // adaptive stance flips, either direction

	// path is the guest-visible device path; vm the guest kernel's name.
	// m holds the per-path metric names, precomputed at Connect so the hot
	// path never builds strings. qdepthHigh is the high-water ring
	// occupancy, mirrored into the qdepth.max gauge.
	path       string
	vm         string
	m          feMetricNames
	qdepthHigh int
}

// feMetricNames are the frontend's per-channel metric names, built once at
// Connect time (tracing must cost nothing but a map lookup when off, and no
// string concatenation when on). Names are keyed "cvd.<path>@<vm>" — the
// guest VM qualifier keeps multi-guest dumps per-guest attributable: two
// guests paravirtualizing the same device path must not fold their counters
// into one series.
//
// Each failure exit of roundTrip moves exactly one of them: errno.ENODEV
// (degraded), errno.EREMOTE (dead backend), throttled (admission, plus the
// class's eagain.class<n>), rejected (ring full) and timedout (deadline).
type feMetricNames struct {
	ops, bytes, rejected, throttled, timedOut string
	queued, lat, qdepth, qdepthMax            string
	errNoDev, errRemote                       string
}

func newFeMetricNames(vm, path string) feMetricNames {
	p := "cvd." + path + "@" + vm
	return feMetricNames{
		ops:       p + ".ops",
		bytes:     p + ".bytes",
		rejected:  p + ".rejected",
		throttled: p + ".throttled",
		timedOut:  p + ".timedout",
		queued:    p + ".queued",
		lat:       p + ".roundtrip",
		qdepth:    p + ".qdepth",
		qdepthMax: p + ".qdepth.max",
		errNoDev:  p + ".errno.ENODEV",
		errRemote: p + ".errno.EREMOTE",
	}
}

var _ kernel.FileOps = (*Frontend)(nil)

// vmaState is the frontend's per-mapping bookkeeping: the long-lived map
// grant (faults arrive after the mmap call returns) and the backend file
// instance.
type vmaState struct {
	ref    uint32
	fileID uint16
}

func devfileFlags(v uint64) devfile.OpenFlags { return devfile.OpenFlags(v) }
func devfileCmd(v uint64) devfile.IoctlCmd    { return devfile.IoctlCmd(v) }

func (fe *Frontend) fileID(c *kernel.FopCtx) uint16 {
	id, _ := c.File.Priv.(uint16)
	return id
}

// kickBackend makes the backend notice a newly posted slot: a shared-page
// observation if it is spinning, an inter-VM interrupt otherwise. rid labels
// the crossing's trace span (0 for heartbeats and other unattributed kicks).
func (fe *Frontend) kickBackend(rid uint64) {
	be := fe.backend
	if cross(fe.hv, rid, fe.ring.readU32(hdrBackendPoll) == 1, fe.driverVM, fe.vecToBackend, be.observe) {
		be.PolledPosts++
	} else {
		fe.DoorbellIRQs++
	}
}

// postDoorbell notifies the backend of a newly posted request slot. With
// batching configured and the channel in interrupt stance, the slot joins
// the pending set instead of kicking, and the whole set shares the single
// inter-VM IRQ its flush sends (one CostInterVMIRQ for the batch). The
// polling path is untouched — a spinning backend observes the page
// directly, IRQ-free — and watchdog heartbeats call kickBackend directly so
// detection latency is never inflated by the batching window.
func (fe *Frontend) postDoorbell(rid uint64, slot int) {
	if fe.coalesce <= 0 || fe.polling() {
		fe.kickBackend(rid)
		return
	}
	// A slot already pending was reclaimed and reposted inside the window (a
	// timed-out request swept by a late response, then the slot reused). The
	// pending set already covers it, and the repost wrote the CURRENT
	// occupant's rid into the slot, which is what the flush attributes to.
	if fe.inPending[slot] {
		return
	}
	fe.inPending[slot] = true
	fe.pending = append(fe.pending, slot)
	be := fe.backend
	fe.batch(fe.hv.Env, func() { fe.flushPending(be) })
}

// flushPending sends the one doorbell covering the current pending set. The
// set is re-validated at flush time: only slots still posted are counted and
// published in the submission descriptor, and the kick is attributed to the
// oldest still-posted member's current rid. A flush whose backend died, was
// superseded (restart epoch moved on), or whose pending set has entirely
// retired inside the window rings nothing — it no longer owns a doorbell, or
// has nothing to announce, and must not scribble descriptor words a
// successor now owns.
func (fe *Frontend) flushPending(be *Backend) {
	fe.take()
	pending := fe.pending
	fe.pending = fe.pending[:0]
	for _, s := range pending {
		fe.inPending[s] = false
	}
	if fe.backend != be || be == nil || !be.ringCurrent() {
		// The channel reconnected, handed over, or its backend died inside
		// the window: the reconnect sweep has already failed everything that
		// was posted, and the flush must not ring a doorbell it no longer
		// owns. (During a drain the predecessor still owns the ring and its
		// in-flight posts — a flush then proceeds, or the quiesce would
		// never see the ring empty.)
		return
	}
	posted := 0
	var firstRID uint64
	for _, s := range pending {
		if fe.ring.slotState(s) != slotPosted {
			continue // retired (or picked up) inside the window; nothing to announce
		}
		if posted == 0 {
			firstRID = uint64(fe.ring.postedRID(s))
		}
		posted++
	}
	if posted == 0 {
		return
	}
	fe.ring.writeU32(hdrSubCount, fe.ring.readU32(hdrSubCount)+uint32(posted))
	fe.BatchFlushes++
	if posted > 1 {
		// Per-flush accounting: every member beyond the one that pays for
		// the kick shared the IRQ. Counted here — not per-post — so the
		// stat agrees with what the flush actually sent.
		fe.CoalescedKicks += uint64(posted - 1)
		trace.Get(fe.hv.Env).Add("cvd.doorbell.coalesced", uint64(posted-1))
	}
	tr := trace.Get(fe.hv.Env)
	tr.Add("cvd.doorbell.flushes", 1)
	tr.ObserveCount("cvd.doorbell.batch", uint64(posted))
	fe.kickBackend(firstRID)
}

// scanDone fires the response event of every slot named by the ring's
// completion descriptor (the hdrDoneBits bitmap) — O(batch), not
// O(slotCount). It runs from the response ISR (interrupt mode) or as the
// spinning requester's page observation (polling mode). The descriptor words
// cross the VM boundary and are untrusted: every bit is validated against
// the actual slot state, so hostile counts or stray bits degrade to a no-op
// (and, for the issuer, an honest deadline), never a panic or a false
// completion. Completion bits persist in the ring until consumed, so a
// dropped response IRQ is recovered by the next scan exactly as the full
// sweep recovered it. Slots whose issuer timed out and left are reclaimed
// here — the late response is discarded, never delivered.
func (fe *Frontend) scanDone() {
	words := fe.ring.takeDoneBits()
	for w, word := range words {
		for word != 0 {
			b := bits.TrailingZeros32(word)
			word &^= 1 << uint(b)
			s := w*32 + b
			if s >= slotCount || fe.ring.slotState(s) != slotDone {
				continue // hostile or stale bit: no completed slot behind it
			}
			if fe.abandoned[s] {
				fe.abandoned[s] = false
				fe.ring.recycleSlot(s)
				continue
			}
			fe.respEvents[s].Trigger()
		}
	}
	if fe.hbEvent != nil && fe.ring.readU32(hdrHbAck) == fe.hbSeq {
		fe.hbEvent.Trigger()
	}
}

// handleNotifs dispatches backend notifications: poll wake-ups re-evaluate
// pending polls; SIGIO notifications deliver the signal to every guest
// process that armed fasync on this device (§5.1's asynchronous
// notification path).
func (fe *Frontend) handleNotifs() {
	bits := fe.ring.takeNotifs()
	if bits&notifPollWake != 0 {
		fe.pollWQ.Wake()
	}
	if bits&notifSIGIO != 0 {
		for _, f := range fe.fasyncFiles {
			if f.FasyncOn {
				f.Proc.DeliverSIGIO()
			}
		}
	}
}

// slotClaimed reserves a slot between allocation and posting.
const slotClaimed = 4

func (fe *Frontend) allocSlot() (int, bool) {
	v := fe.ring.view()
	for s := 0; s < slotCount; s++ {
		if v.slotState(s) == slotFree {
			fe.ring.setSlotState(s, slotClaimed)
			return s, true
		}
	}
	return 0, false
}

// roundTrip forwards one file operation and waits for its response.
//
// Fast-fail paths (driver-VM supervision): a degraded device refuses
// everything with ENODEV; a dead backend (post-Stop, pre-Reconnect) refuses
// with EREMOTE instead of enqueueing onto a ring nobody will drain. With a
// per-request deadline configured, a request the backend never answers fails
// with ETIMEDOUT and its slot is abandoned rather than leaking the issuer.
func (fe *Frontend) roundTrip(c *kernel.FopCtx, r request) (int32, kernel.Errno) {
	t := c.Task
	tr := trace.Get(fe.guestK.Env)
	rid := t.Sim().RID()
	start := tr.Now()
	tr.Add(fe.m.ops, 1)
	parked := false
	if fe.draining {
		// Planned handover in progress: park the post at the frontend until
		// the switch completes (or the drain aborts back to the predecessor),
		// then fall through to the normal path against whichever backend owns
		// the ring by then. This is the zero-loss alternative to EREMOTE, so
		// the park comes BEFORE the dead-backend check: a post arriving in
		// the switch window must see the successor, not the torn-down
		// predecessor. The wait is bounded in case an EndDrain is lost to a
		// bug — never in a healthy handover, where EndDrain runs on every
		// exit path.
		parked = true
		fe.QueuedPosts++
		tr.Add(fe.m.queued, 1)
		t.Sim().WaitTimeout(fe.drainEvent, DefaultDrainBound)
	}
	if fe.degraded {
		return fail(tr, &fe.FastFailed, fe.m.errNoDev, kernel.ENODEV)
	}
	if fe.backend == nil || fe.backend.stopped {
		return fail(tr, &fe.FastFailed, fe.m.errRemote, kernel.EREMOTE)
	}
	if lim, limited := fe.admission[t.QoS]; limited && !parked &&
		r.op != opOpen && r.op != opRelease && fe.Occupancy() >= lim {
		// Admission control: this QoS class is not allowed to deepen the
		// queue past its occupancy limit. EAGAIN tells an open-loop client
		// to shed the request rather than pile onto a saturated ring.
		// Lifecycle operations (open/release) are exempt — shedding a
		// release would leak the backend file, and neither adds load worth
		// shedding.
		tr.Add(fe.admitNames[t.QoS], 1)
		return fail(tr, &fe.Throttled, fe.m.throttled, kernel.EAGAIN)
	}
	slot, ok := fe.allocSlot()
	if !ok && parked {
		// A replayed burst of parked posts can momentarily exceed the ring's
		// 100 slots. A parked post was promised zero loss, so it retries for
		// a bounded while instead of turning the planned handover into EBUSY
		// for its issuer; the burst drains at the device's service rate. The
		// unparked path below is untouched (the §5.1 DoS cap).
		for i := 0; i < drainRetrySlots && !ok; i++ {
			t.Sim().Sleep(drainRetryGap)
			slot, ok = fe.allocSlot()
		}
	}
	if !ok {
		// All 100 queue slots in use: the DoS cap of §5.1.
		return fail(tr, &fe.Rejected, fe.m.rejected, kernel.EBUSY)
	}
	// Queue-depth gauges: the depth after this claim, and its high-water
	// mark. The scan is O(slotCount) but only runs under an installed
	// tracer — the uninstrumented hot path is untouched.
	if tr != nil {
		occ := fe.Occupancy()
		if occ > fe.qdepthHigh {
			fe.qdepthHigh = occ
			tr.Set(fe.m.qdepthMax, uint64(occ))
		}
		tr.Set(fe.m.qdepth, uint64(occ))
	}
	r.slot = slot
	r.seq = fe.nextSeq
	r.rid = uint32(rid)
	fe.nextSeq++
	ev := fe.respEvents[slot]
	ev.Reset()
	perf.Spend(fe.guestK.Env, fe.vm, trace.LayerFE, "post", perf.CostPost)
	if fe.arrive(fe.hv.Env.Now()) {
		fe.ModeSwitches++
		var poll uint64
		if fe.stance {
			poll = 1
		}
		tr.Add("cvd.adaptive.switches", 1)
		tr.Set("cvd.adaptive.stance", poll)
		tr.Instant(0, fe.vm, trace.LayerFE, fe.stanceName(), fe.path)
	}
	fe.ring.writeRequest(slot, r)
	fe.postDoorbell(rid, slot)
	if !fe.await(t.Sim(), ev) && fe.ring.slotState(slot) != slotDone {
		// Deadline expired with no response. The backend may still be
		// executing the operation, so the slot cannot be freed; mark it
		// abandoned and let scanDone (or a Reconnect sweep) reclaim it.
		fe.abandoned[slot] = true
		return fail(tr, &fe.TimedOut, fe.m.timedOut, kernel.ETIMEDOUT)
	}
	perf.Spend(fe.guestK.Env, fe.vm, trace.LayerFE, "complete", perf.CostComplete)
	ret, errno := fe.ring.readResponse(slot)
	fe.ring.recycleSlot(slot)
	fe.RoundTrips++
	tr.Observe(fe.m.lat, tr.Now().Sub(start))
	if (r.op == opRead || r.op == opWrite) && errno == 0 && ret > 0 {
		tr.Add(fe.m.bytes, uint64(ret))
	}
	return ret, kernel.Errno(errno)
}

// fail ends a round trip at one of its failure exits: the exit's stat and
// its per-path counter move, and the caller gets errno.
func fail(tr *trace.Tracer, stat *uint64, counter string, errno kernel.Errno) (int32, kernel.Errno) {
	*stat++
	tr.Add(counter, 1)
	return -1, errno
}

// await waits for a posted slot's response event, bounded by the request
// deadline (none when it is 0 or less), and reports whether the event fired
// (a completed slot whose interrupt was lost still counts as answered via
// the caller's direct slot-state check). In polling stance the wait starts
// as a spin on the shared page of up to one window, itself bounded by the
// deadline so a doomed request cannot overshoot it; hdrFrontendPoll is
// raised for the spin only, so an abandoned request never leaves the
// backend believing a frontend is still spinning. What remains is a sleep,
// timed only by a positive remainder of the deadline: a spin that used the
// whole deadline schedules nothing more.
func (fe *Frontend) await(p *sim.Proc, ev *sim.Event) bool {
	left := fe.deadline
	if fe.polling() {
		d := fe.window
		if left > 0 {
			d = min(d, left)
		}
		fe.ring.writeU32(hdrFrontendPoll, fe.ring.readU32(hdrFrontendPoll)+1)
		woken := fe.spin(p, ev, d)
		fe.ring.writeU32(hdrFrontendPoll, fe.ring.readU32(hdrFrontendPoll)-1)
		if woken {
			return true
		}
		if left > 0 {
			left -= d
			if left == 0 {
				return false
			}
		}
	}
	if left <= 0 {
		p.Wait(ev)
		return true
	}
	return p.WaitTimeout(ev, left)
}

// SetDeadline installs the per-request deadline for subsequent operations
// (0 or less disables). Supervision enables this so a request stuck behind a dead
// driver VM times out with ETIMEDOUT instead of blocking its issuer forever.
func (fe *Frontend) SetDeadline(d sim.Duration) { fe.deadline = d }

// SetAdmission installs per-QoS-class admission limits: a request from a
// class present in the map is refused with EAGAIN when the ring already
// holds limit in-flight requests. Classes absent from the map are admitted
// until the ring is full. nil (or empty) disables admission control.
func (fe *Frontend) SetAdmission(limits map[uint8]int) {
	if len(limits) == 0 {
		fe.admission, fe.admitNames = nil, nil
		return
	}
	fe.admission = make(map[uint8]int, len(limits))
	fe.admitNames = make(map[uint8]string, len(limits))
	for cls, lim := range limits {
		fe.admission[cls] = lim
		fe.admitNames[cls] = fmt.Sprintf("cvd.%s@%s.eagain.class%d", fe.path, fe.vm, cls)
	}
}

// Occupancy returns the number of ring slots currently in flight (claimed,
// posted, running, or completed-but-uncollected) — the queue depth the
// admission limits are compared against.
func (fe *Frontend) Occupancy() int {
	v, n := fe.ring.view(), 0
	for s := 0; s < slotCount; s++ {
		if v.slotState(s) != slotFree {
			n++
		}
	}
	return n
}

// Drain-mode constants: the defensive bound on a parked post's wait (the
// handover engine always EndDrains far sooner), and the polite retry loop a
// parked post runs when the replay burst momentarily fills the ring.
const (
	// DefaultDrainBound caps a parked post's wait. Generous: it only matters
	// if an EndDrain is lost to a bug.
	DefaultDrainBound = 250 * sim.Millisecond
	drainRetrySlots   = 400
	drainRetryGap     = 5 * sim.Microsecond
)

// BeginDrain enters drain mode for a planned handover: in-flight slots keep
// completing on the current backend, while new posts park at the frontend
// (bounded by DefaultDrainBound) until EndDrain.
func (fe *Frontend) BeginDrain() {
	fe.draining = true
	fe.drainEvent.Reset()
}

// EndDrain leaves drain mode and releases every parked post. Runs on every
// exit of a handover — after the switch commits (parked posts replay against
// the successor) and after an abort (they proceed against the still-live
// predecessor).
func (fe *Frontend) EndDrain() {
	fe.draining = false
	fe.drainEvent.Trigger()
}

// SetDegraded enters or leaves degraded mode: every subsequent operation
// fails immediately with ENODEV. The supervisor degrades a device when its
// restart budget is exhausted; a later successful driver-VM restart clears
// the flag.
func (fe *Frontend) SetDegraded(on bool) { fe.degraded = on }

// Heartbeat posts one watchdog heartbeat — a cheap ring no-op that consumes
// no request slot — and waits up to timeout for the backend to echo it.
// It runs on the supervisor's own sim proc, not a guest task. Returns false
// on a dead backend, a swallowed ack, or an ack later than the timeout.
func (fe *Frontend) Heartbeat(p *sim.Proc, timeout sim.Duration) bool {
	if fe.backend == nil || fe.backend.stopped {
		return false
	}
	perf.Spend(fe.hv.Env, "driver-vm", trace.LayerSupervisor, "watchdog-ping", perf.CostWatchdogPing)
	fe.hbSeq++
	fe.ring.writeU32(hdrHbReq, fe.hbSeq)
	fe.hbEvent.Reset()
	fe.kickBackend(0)
	if fe.ring.readU32(hdrHbAck) == fe.hbSeq {
		return true
	}
	p.WaitTimeout(fe.hbEvent, timeout)
	return fe.ring.readU32(hdrHbAck) == fe.hbSeq
}

// declare writes a grant set for the issuing process and charges the
// declaration cost. Empty op lists yield reference 0 (no grant).
//
// Unbatched (the paper's behavior), each entry is its own hypervisor
// crossing: len(ops)·CostGrantDeclare. When the guest's grant-validation
// cache is armed (translation caching, Config.TLB; see NewGuestGrantTable)
// the whole vector goes in one crossing — CostGrantDeclare plus
// CostGrantEntry per further entry — and the hypervisor caches the vector
// for validation (grant.Table.OnDeclare). A single-entry batched declare
// costs exactly the unbatched amount. The cvd.fe.grant.crossings counter
// records actual crossings so the walkcache experiment can show an 8-entry
// declare dropping from 8 crossings to 1.
func (fe *Frontend) declare(c *kernel.FopCtx, ops []grant.Op) (uint32, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if d := faults.Point(fe.guestK.Env, "grant.declare"); d != nil {
		// Injected fault: the declaration fails as if the table page were
		// full; callers surface ENOMEM to the application.
		return 0, d.Error()
	}
	cost, crossings := sim.Duration(len(ops))*perf.CostGrantDeclare, uint64(len(ops))
	if fe.hv.GrantCacheArmed(fe.guestVM) {
		cost, crossings = perf.CostGrantDeclare+sim.Duration(len(ops)-1)*perf.CostGrantEntry, 1
	}
	perf.Spend(fe.guestK.Env, fe.vm, trace.LayerFE, "grant-declare", cost)
	trace.Get(fe.guestK.Env).Add("cvd.fe.grant.crossings", crossings)
	return fe.grants.Declare(c.Task.Proc.PT.Root(), ops)
}

// bulkKey identifies one bulk grant: a file's read buffer and write buffer
// are tracked independently.
type bulkKey struct {
	fileID uint16
	kind   grant.Kind
}

// bulkGrant is one live long-lived data-buffer grant backing the map cache.
type bulkGrant struct {
	va  mem.GuestVirt
	n   uint64
	ref uint32
}

// dataRef produces the grant reference for one read/write data buffer.
//
// Slow path (map cache off): declare a one-shot grant; the caller revokes it
// when the operation returns, and the backend moves the data with a
// hypervisor-assisted copy.
//
// Fast path: reuse (or declare) a bulk grant kept alive across requests and
// mark the request with reqFlagMapHint, so the backend's grant-map cache can
// amortize one cross-VM mapping over every request touching the buffer. A
// changed buffer revokes the old bulk grant first — which also tears down the
// backend's cached mapping, via grant.Table.OnRevoke, in the same instant.
func (fe *Frontend) dataRef(c *kernel.FopCtx, fileID uint16, kind grant.Kind,
	va mem.GuestVirt, n int) (ref uint32, flags uint8, oneshot bool, err error) {
	if !fe.mapCache {
		ref, err = fe.declare(c, []grant.Op{{Kind: kind, VA: va, Len: uint64(n)}})
		return ref, 0, true, err
	}
	key := bulkKey{fileID: fileID, kind: kind}
	if bg, ok := fe.bulk[key]; ok {
		if va >= bg.va && uint64(va)+uint64(n) <= uint64(bg.va)+bg.n {
			// The buffer (or a sub-range of it) is already granted: nothing
			// to declare, nothing to validate per-request — that is the
			// frontend half of the amortization.
			return bg.ref, reqFlagMapHint, false, nil
		}
		delete(fe.bulk, key)
		fe.grants.Revoke(bg.ref)
	}
	ref, err = fe.declare(c, []grant.Op{{Kind: kind, VA: va, Len: uint64(n)}})
	if err != nil || ref == 0 {
		return ref, 0, true, err
	}
	fe.bulk[key] = bulkGrant{va: va, n: uint64(n), ref: ref}
	return ref, reqFlagMapHint, false, nil
}

// dropBulk revokes the file's bulk grants (file release). Each revocation
// invalidates the backend's cached mapping through the grant table's
// OnRevoke subscription.
func (fe *Frontend) dropBulk(fileID uint16) {
	for _, kind := range []grant.Kind{grant.KindCopyTo, grant.KindCopyFrom} {
		key := bulkKey{fileID: fileID, kind: kind}
		if bg, ok := fe.bulk[key]; ok {
			delete(fe.bulk, key)
			fe.grants.Revoke(bg.ref)
		}
	}
}

func errOr[T any](v T, e kernel.Errno) (T, error) {
	if e != 0 {
		return v, e
	}
	return v, nil
}

// Open implements kernel.FileOps.
func (fe *Frontend) Open(c *kernel.FopCtx) error {
	id := fe.nextFileID
	fe.nextFileID++
	_, errno := fe.roundTrip(c, request{op: opOpen, fileID: id, arg0: uint64(c.File.Flags)})
	if errno != 0 {
		return errno
	}
	c.File.Priv = id
	return nil
}

// Release implements kernel.FileOps.
func (fe *Frontend) Release(c *kernel.FopCtx) error {
	id := fe.fileID(c)
	for i, f := range fe.fasyncFiles {
		if f == c.File {
			fe.fasyncFiles = append(fe.fasyncFiles[:i], fe.fasyncFiles[i+1:]...)
			break
		}
	}
	_, errno := fe.roundTrip(c, request{op: opRelease, fileID: id})
	// The file's bulk grants die with it, whether or not the release made it
	// across; revoking them tears down the backend's cached mappings.
	fe.dropBulk(id)
	return errOrNil(errno)
}

func errOrNil(e kernel.Errno) error {
	if e != 0 {
		return e
	}
	return nil
}

// Read implements kernel.FileOps: the read arguments directly identify the
// one legitimate memory operation (§4.1).
func (fe *Frontend) Read(c *kernel.FopCtx, dst mem.GuestVirt, n int) (int, error) {
	return fe.transfer(c, opRead, grant.KindCopyTo, dst, n)
}

// Write implements kernel.FileOps.
func (fe *Frontend) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	return fe.transfer(c, opWrite, grant.KindCopyFrom, src, n)
}

// transfer forwards a read or write of n bytes at buf under a data grant of
// the given kind.
func (fe *Frontend) transfer(c *kernel.FopCtx, op uint8, kind grant.Kind, buf mem.GuestVirt, n int) (int, error) {
	var ref uint32
	var flags uint8
	id := fe.fileID(c)
	if n > 0 {
		var oneshot bool
		var err error
		ref, flags, oneshot, err = fe.dataRef(c, id, kind, buf, n)
		if err != nil {
			return 0, kernel.ENOMEM
		}
		if oneshot && ref != 0 {
			defer fe.grants.Revoke(ref)
		}
	}
	ret, errno := fe.roundTrip(c, request{op: op, fileID: id, flags: flags, ref: ref, arg0: uint64(buf), arg1: uint64(n)})
	return errOr(int(ret), errno)
}

// userReader lets just-in-time slice execution read the issuing process's
// memory (§4.1: the frontend executes the extracted code at runtime).
type userReader struct{ c *kernel.FopCtx }

func (r userReader) ReadUser(va mem.GuestVirt, buf []byte) error {
	return r.c.Task.Proc.UserRead(r.c.Task, va, buf)
}

// Ioctl implements kernel.FileOps: memory operations come from the
// analyzer's command spec when one is registered (static entries, or
// just-in-time slice execution for nested copies), falling back to the
// command-number macros.
func (fe *Frontend) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	var ops []grant.Op
	if spec, ok := fe.specs[cmd]; ok {
		var err error
		ops, err = spec.Ops(uint64(arg), userReader{c})
		if err != nil {
			return -1, kernel.EFAULT
		}
	} else {
		ops = ioctlan.MacroOps(cmd, uint64(arg))
	}
	ref, err := fe.declare(c, ops)
	if err != nil {
		return -1, kernel.ENOMEM
	}
	if ref != 0 {
		defer fe.grants.Revoke(ref)
	}
	ret, errno := fe.roundTrip(c, request{op: opIoctl, fileID: fe.fileID(c), ref: ref, arg0: uint64(cmd), arg1: uint64(arg)})
	return errOr(ret, errno)
}

// Mmap implements kernel.FileOps: the frontend pre-creates all page-table
// levels except the last for the mapping range, declares a long-lived map
// grant covering it, and forwards the operation (§5.2).
func (fe *Frontend) Mmap(c *kernel.FopCtx, v *kernel.VMA) error {
	if v.Start == 0 {
		// The kernel did not pass the VA range (unpatched FreeBSD, §5.1);
		// the Linux driver behind the boundary cannot work without it.
		return kernel.EINVAL
	}
	for off := uint64(0); off < v.Len; off += mem.PageSize {
		if err := v.Proc.PT.EnsureIntermediates(v.Start + mem.GuestVirt(off)); err != nil {
			return kernel.ENOMEM
		}
	}
	ref, err := fe.declare(c, []grant.Op{{Kind: grant.KindMapPage, VA: v.Start, Len: v.Len}})
	if err != nil {
		return kernel.ENOMEM
	}
	id := fe.fileID(c)
	_, errno := fe.roundTrip(c, request{op: opMmap, fileID: id, ref: ref,
		arg0: uint64(v.Start), arg1: v.Len, arg2: v.Pgoff})
	if errno != 0 {
		fe.grants.Revoke(ref)
		return errno
	}
	v.Private = vmaState{ref: ref, fileID: id}
	v.OnUnmap = fe.onUnmap
	return nil
}

// onUnmap runs when the guest process unmaps: the guest kernel clears its
// own page-table leaves first, then the unmap is forwarded so the driver is
// informed and the hypervisor destroys the EPT entries; finally the map
// grant is revoked.
func (fe *Frontend) onUnmap(c *kernel.FopCtx, v *kernel.VMA) error {
	st, _ := v.Private.(vmaState)
	for off := uint64(0); off < v.Len; off += mem.PageSize {
		va := v.Start + mem.GuestVirt(off)
		if v.Proc.PT.Mapped(va) {
			if err := v.Proc.PT.Unmap(va); err != nil {
				return err
			}
		}
	}
	_, errno := fe.roundTrip(c, request{op: opMunmap, fileID: st.fileID, ref: st.ref, arg0: uint64(v.Start)})
	fe.grants.Revoke(st.ref)
	return errOrNil(errno)
}

// Fault implements kernel.FileOps: a page fault in a forwarded mapping is
// itself forwarded, under the mapping's long-lived grant.
func (fe *Frontend) Fault(c *kernel.FopCtx, v *kernel.VMA, va mem.GuestVirt) error {
	st, ok := v.Private.(vmaState)
	if !ok {
		return kernel.EFAULT
	}
	_, errno := fe.roundTrip(c, request{op: opFault, fileID: st.fileID, ref: st.ref,
		arg0: uint64(va), arg1: uint64(v.Start)})
	return errOrNil(errno)
}

// Poll implements kernel.FileOps: the mask query is forwarded; if nothing
// is ready the backend arms a poll-wake notification, which wakes the
// frontend's local wait queue and makes the guest kernel re-query.
func (fe *Frontend) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(fe.pollWQ)
	want := pt.Want
	if want == 0 {
		want = devfile.PollIn | devfile.PollOut
	}
	ret, errno := fe.roundTrip(c, request{op: opPoll, fileID: fe.fileID(c), arg0: uint64(want)})
	if errno != 0 {
		return devfile.PollErr
	}
	return devfile.PollMask(ret)
}

// Fasync implements kernel.FileOps.
func (fe *Frontend) Fasync(c *kernel.FopCtx, on bool) error {
	var v uint64
	if on {
		v = 1
	}
	_, errno := fe.roundTrip(c, request{op: opFasync, fileID: fe.fileID(c), arg0: v})
	if errno != 0 {
		return errno
	}
	// Arming twice must not double the SIGIOs: each file is listed once,
	// and handleNotifs checks FasyncOn for the disarmed ones.
	if on && !slices.Contains(fe.fasyncFiles, c.File) {
		fe.fasyncFiles = append(fe.fasyncFiles, c.File)
	}
	return nil
}
