package cvd

import (
	"slices"

	"paradice/internal/faults"
	"paradice/internal/grant"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// opName names a forwarded op code for trace spans and error messages.
func opName(op uint8) string {
	switch op {
	case opOpen:
		return "open"
	case opRelease:
		return "release"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opIoctl:
		return "ioctl"
	case opMmap:
		return "mmap"
	case opMunmap:
		return "munmap"
	case opFault:
		return "fault"
	case opPoll:
		return "poll"
	case opFasync:
		return "fasync"
	}
	return "?"
}

// Backend is the CVD backend serving one guest VM's channel for one device
// file. A dispatcher task pops posted operations in FIFO order and hands each
// to a handler thread (pool.go), marked so the kernel's wrapper stubs redirect
// its memory operations to the hypervisor (§5.2).
type Backend struct {
	hv       *hv.Hypervisor
	driverVM *hv.VM
	guestVM  *hv.VM
	driverK  *kernel.Kernel
	node     *kernel.DeviceNode
	ring     page
	proc     *kernel.Process

	// policy is the transport policy: mode, poll window, adaptive stance
	// (fed by pickups), completion batching and SpinTime, the virtual time
	// the dispatcher spent spinning its poll window — the CPU the driver VM
	// burns to keep latency low.
	policy

	doorbell *sim.Event
	files    map[uint16]*kernel.File
	vmas     map[uint16]map[mem.GuestVirt]*kernel.VMA // fileID -> start -> VMA
	// vecToBackend is the doorbell vector in the driver VM that the
	// frontend's kicks raise; vecResp and vecNotif are the guest's.
	vecToBackend int
	vecResp      int
	vecNotif     int
	// frontendDoorbell, installed by bind, is the simulation's
	// stand-in for a spinning requester's load of the shared page (the
	// response data itself still travels through the page); observe is the
	// same for the spinning dispatcher, run by a frontend poll-cross.
	frontendDoorbell func()
	observe          func()
	// stopped terminates the dispatcher (driver VM restart).
	stopped bool
	// posted is the dispatcher's queue of the ring's posted slots in serve
	// order, valid until the dispatcher next blocks.
	posted postedQueue
	// epoch is the ring's restart-epoch word (hdrEpoch) as of this backend's
	// creation. Bind bumps the word before attaching a successor, so a
	// pre-restart backend — its dispatcher, a late handler thread still
	// holding a slot index, a deferred heartbeat ack — observes the mismatch
	// and discards instead of touching slots the successor now owns. This is
	// the ring-visible form of the protection: unlike the stopped flag it
	// does not depend on anyone having had the chance to stop the old
	// backend (a wedged-but-alive driver VM never gets stopped).
	epoch uint32
	// mapc, when non-nil, is the grant-map cache (the bulk-transfer fast
	// path); see mapcache.go.
	mapc *mapCache
	// pool is the handler set the dispatcher hands operations to: the
	// backend's own until a Machine joins it to its driver VM's. See pool.go.
	pool *Pool
	// poolChan is this channel's queue in pool, set by Join and cleared by
	// Leave, so an enqueue need not search the pool's channel list.
	poolChan *poolChan
	// onDeath, when set, is invoked once if the backend dies abnormally —
	// an injected driver-VM crash or an explicit Kill — but NOT on an
	// orderly Stop. Driver-VM supervision registers here for immediate
	// failure detection instead of waiting out missed heartbeats.
	onDeath func()
	// hbSeen is the last watchdog heartbeat sequence this backend observed,
	// whether it acked it or a fault swallowed the ack. Backend-local so a
	// dropped ack is not retried forever by the dispatcher loop.
	hbSeen uint32

	// notifyGate, when set, is consulted before sending a notification;
	// the foreground/background model of §5.1 gates input notifications to
	// the foreground guest only.
	notifyGate func() bool

	// warmFiles/warmVMAs carry the predecessor's open-file table across a
	// planned handover: fileIDs the guest still holds but the successor's
	// driver has never seen. The successor re-opens them lazily — the first
	// forwarded operation naming a warm fileID replays open (and the file's
	// mmaps) against the real driver in that operation's own handler context,
	// so the guest never observes EINVAL for a file it legitimately holds.
	// The records are the predecessor's own, read-only here: a retired
	// backend never touches its file table again.
	warmFiles map[uint16]*kernel.File
	warmVMAs  map[uint16][]*kernel.VMA

	// Stats observable by tests and the bench harness.
	OpsHandled    uint64
	NotifsSent    uint64
	NotifsDropped uint64
	WakeIRQs      uint64 // doorbell interrupts received while sleeping
	PolledPosts   uint64 // posts observed while spinning
	WarmReopens   uint64 // predecessor files lazily re-opened after a handover
}

// SetNotifyGate installs a predicate consulted before notifications are
// sent. Paradice's foreground-background sharing model (§5.1) uses it to
// deliver input notifications only to the foreground guest VM.
func (b *Backend) SetNotifyGate(fn func() bool) { b.notifyGate = fn }

// forwarded is one forwarded operation on the driver-VM side: the adopted
// task that runs it, the conduit its memory operations go through and the
// context its file operation runs with. Each handler thread owns one and
// resets it for every operation it runs.
type forwarded struct {
	task    kernel.Task
	conduit remoteConduit
	ctx     kernel.FopCtx
}

// remoteConduit implements kernel.RemoteOps for one forwarded file
// operation, attaching its grant reference to every hypervisor request.
// For read/write requests carrying reqFlagMapHint, data movement within the
// request's declared buffer is routed through the backend's grant-map cache
// instead of a per-access assisted copy; anything else (or any access the
// hint's buffer does not cover) takes the slow path unchanged.
type remoteConduit struct {
	hv    *hv.Hypervisor
	guest *hv.VM
	drv   *hv.VM
	ref   uint32

	// Fast-path routing, set only for hinted read/write requests.
	mapc    *mapCache
	mapKind grant.Kind
	fileID  uint16
	bufVA   mem.GuestVirt
	bufLen  uint64
}

// inBuf reports whether [va, va+n) lies within the hinted request's declared
// data buffer — the only range the cached mapping may serve.
func (r *remoteConduit) inBuf(va mem.GuestVirt, n int) bool {
	return va >= r.bufVA && uint64(va)+uint64(n) <= uint64(r.bufVA)+r.bufLen &&
		uint64(va)+uint64(n) >= uint64(va)
}

func (r *remoteConduit) CopyToUser(dst mem.GuestVirt, src []byte) error {
	if r.mapc != nil && r.mapKind == grant.KindCopyTo && r.inBuf(dst, len(src)) {
		if err := r.mapc.access(r.fileID, r.ref, grant.KindCopyTo,
			r.bufVA, r.bufLen, dst, src, true); err != nil {
			return kernel.EFAULT
		}
		return nil
	}
	if err := r.hv.CopyToGuest(r.guest, r.ref, dst, src); err != nil {
		return kernel.EFAULT
	}
	return nil
}

func (r *remoteConduit) CopyFromUser(src mem.GuestVirt, buf []byte) error {
	if r.mapc != nil && r.mapKind == grant.KindCopyFrom && r.inBuf(src, len(buf)) {
		if err := r.mapc.access(r.fileID, r.ref, grant.KindCopyFrom,
			r.bufVA, r.bufLen, src, buf, false); err != nil {
			return kernel.EFAULT
		}
		return nil
	}
	if err := r.hv.CopyFromGuest(r.guest, r.ref, src, buf); err != nil {
		return kernel.EFAULT
	}
	return nil
}

func (r *remoteConduit) MapPage(va mem.GuestVirt, pfn mem.GuestPhys) error {
	if err := r.hv.MapToGuest(r.guest, r.ref, va, r.drv, pfn); err != nil {
		return kernel.EFAULT
	}
	return nil
}

func (r *remoteConduit) UnmapPage(va mem.GuestVirt) error {
	if err := r.hv.UnmapFromGuest(r.guest, r.ref, va); err != nil {
		return kernel.EFAULT
	}
	return nil
}

// newBackend builds a backend around an already-created kernel process.
// Process creation is the one fallible step of backend construction;
// prepare does it, so bind, which runs after the ring's epoch word has been
// bumped past the predecessor, has no failure path left. bind is its only
// caller.
func newBackend(proc *kernel.Process, h *hv.Hypervisor, driverVM, guestVM *hv.VM,
	driverK *kernel.Kernel, node *kernel.DeviceNode, ringGPA mem.GuestPhys,
	pol policy, vecToBackend, vecResp, vecNotif int) *Backend {
	b := &Backend{
		hv:           h,
		driverVM:     driverVM,
		guestVM:      guestVM,
		driverK:      driverK,
		node:         node,
		ring:         page{acc: &grant.GuestAccessor{Space: driverVM.Space, GPA: ringGPA}},
		proc:         proc,
		policy:       pol,
		doorbell:     driverK.Env.NewEvent(),
		files:        make(map[uint16]*kernel.File),
		vmas:         make(map[uint16]map[mem.GuestVirt]*kernel.VMA),
		vecToBackend: vecToBackend,
		vecResp:      vecResp,
		vecNotif:     vecNotif,
	}
	b.observe = b.doorbell.Trigger
	// A successor backend inherits the ring's heartbeat state: starting from
	// the last acked sequence means a beat posted while the driver VM was
	// rebooting is answered by the new dispatcher's first pass.
	b.hbSeen = b.ring.readU32(hdrHbAck)
	// Snapshot the ring's restart epoch: every write this backend (or one of
	// its handler threads) ever makes to the ring is conditioned on the word
	// still holding this value. Bind bumps it before attaching a
	// successor.
	b.epoch = b.ring.readU32(hdrEpoch)
	// The driver calling kill_fasync on one of our opened files lands in
	// our backend process's SIGIO path; relay it to the frontend.
	proc.OnSIGIO(func() { b.notify(notifSIGIO) })
	NewPool(driverK, 0).Join(b)
	driverVM.RegisterISR(vecToBackend, func() {
		b.WakeIRQs++
		trace.Get(driverK.Env).Add("cvd.backend.wake_irqs", 1)
		b.doorbell.Trigger()
	})
	// The "@<driver>" suffix attributes the proc to its driver-VM shard: a
	// sharded machine runs one supervisor per shard, and its proc-panic hook
	// hands a backend's panic to the supervisor of the shard it names.
	driverK.Env.Spawn("cvd-dispatch-"+guestVM.Name+"@"+driverK.Name, b.dispatch)
	return b
}

// Proc returns the backend's kernel process — the identity under which all
// of this guest's file operations reach the driver. Drivers modified for
// device data isolation key their per-guest regions on it.
func (b *Backend) Proc() *kernel.Process { return b.proc }

// ringCurrent reports whether this backend still owns the ring: it has not
// been stopped, and the ring's restart-epoch word still holds the value the
// backend was created under. Every backend-side ring write is conditioned on
// this — the epoch half catches the interleaving the stopped flag cannot: a
// pre-restart backend nobody managed to stop (a wedged-but-alive driver VM)
// whose handler thread wakes up after its slot has been reclaimed and
// reposted in a new epoch.
func (b *Backend) ringCurrent() bool {
	return !b.stopped && b.ring.readU32(hdrEpoch) == b.epoch
}

// notify posts a notification bit and kicks the frontend, unless the
// notification gate says this guest should not receive it. A stopped (or
// superseded) backend is dead — it no longer owns the ring and must not
// touch it.
func (b *Backend) notify(bits uint32) {
	if !b.ringCurrent() {
		return
	}
	if b.notifyGate != nil && !b.notifyGate() {
		b.NotifsDropped++
		trace.Get(b.hv.Env).Add("cvd.notify.dropped", 1)
		return
	}
	b.ring.postNotif(bits)
	b.NotifsSent++
	trace.Get(b.hv.Env).Add("cvd.notify.sent", 1)
	b.hv.SendInterrupt(b.guestVM, b.vecNotif)
}

// dispatch is the backend's main loop: pop the oldest posted slot, hand it
// to a handler thread, repeat; between operations, poll the page for the
// 200 µs window (polling mode) before sleeping on the doorbell.
//
// The dispatcher and its sleep are the "vCPU halt" fast path: waking it
// costs only the interrupt delivery latency, not a scheduler wake-up —
// which is why the no-op round trip of §6.1.1 is two interrupts and little
// else.
func (b *Backend) dispatch(p *sim.Proc) {
	for {
		if !b.ringCurrent() {
			return
		}
		if faults.Point(b.driverK.Env, "cvd.backend.die") != nil {
			// Injected driver-VM death: the dispatcher vanishes mid-run.
			// Posted operations stay unanswered until a Reconnect fails
			// them with EREMOTE, exactly as after a real driver VM crash.
			b.Kill()
			return
		}
		b.serviceHeartbeat()
		b.consumeSubBatch()
		if slot, ok := b.nextPosted(); ok {
			if b.arrive(b.hv.Env.Now()) {
				tr := trace.Get(b.driverK.Env)
				tr.Add("cvd.adaptive.be.switches", 1)
				tr.Instant(0, b.driverVM.Name, trace.LayerBE, b.stanceName(), b.guestVM.Name)
			}
			b.ring.setSlotState(slot, slotRunning)
			b.pool.enqueue(b, b.ring.readRequest(slot))
			continue
		}
		// About to sleep: re-arm the doorbell, then re-check the heartbeat
		// word. The posted queue needs no re-check: it was filled since the
		// dispatcher last blocked, so it already covers every post.
		b.doorbell.Reset()
		if b.heartbeatPending() {
			continue
		}
		if b.polling() {
			b.ring.writeU32(hdrBackendPoll, 1)
			woken := b.spin(p, b.doorbell, b.window)
			b.posted.drop()
			b.ring.writeU32(hdrBackendPoll, 0)
			if woken {
				continue
			}
			b.doorbell.Reset()
			if b.heartbeatPending() {
				continue
			}
			if _, ok := b.nextPosted(); ok {
				continue
			}
		}
		p.Wait(b.doorbell)
		b.posted.drop()
	}
}

// postedQueue is the dispatcher's private list of the ring's posted slots in
// the order it serves them: by sequence number, ties in slot order, the
// order that repeatedly taking the oldest posted slot yields. One ring scan
// fills it. A sim process runs alone until it blocks, so until the
// dispatcher blocks nothing else touches the ring and the queue stays exact;
// the dispatcher drops it wherever it may block.
type postedQueue struct {
	key    [slotCount]uint64 // seq<<32 | slot, so sorting keeps slot order in ties
	head   int               // next entry to serve
	n      int               // entries filled
	filled bool
}

// fill records every posted slot of v in serve order.
func (q *postedQueue) fill(v view) {
	q.head, q.n, q.filled = 0, 0, true
	for s := 0; s < slotCount; s++ {
		if v.slotState(s) == slotPosted {
			q.key[q.n] = uint64(v.u32(slotOff(s)+sSeq))<<32 | uint64(s)
			q.n++
		}
	}
	slices.Sort(q.key[:q.n])
}

// drop forgets the queue: the dispatcher may have blocked, and the guest
// may have posted or recycled slots meanwhile.
func (q *postedQueue) drop() { q.filled = false }

// nextPosted returns the oldest posted slot, filling the queue by one ring
// scan if it was dropped. The guest owns the page, so an entry counts only
// while its slot still holds the state and sequence the scan saw; the slot
// the dispatcher marks running falls out that way too.
func (b *Backend) nextPosted() (int, bool) {
	q, v := &b.posted, b.ring.view()
	if !q.filled {
		q.fill(v)
	}
	for ; q.head < q.n; q.head++ {
		s, seq := int(uint32(q.key[q.head])), uint32(q.key[q.head]>>32)
		if v.slotState(s) == slotPosted && v.u32(slotOff(s)+sSeq) == seq {
			return s, true
		}
	}
	return -1, false
}

// consumeSubBatch drains the ring's submission batch descriptor: the flush
// that rang the doorbell published how many posted slots it covers
// (hdrSubCount). The dispatcher pays one descriptor deserialization for the
// whole batch — the amortization the batch exists for — and records the
// batch size. The count is advisory and untrusted: it is clamped (the slot
// states are the ground truth for what is actually served), and a hostile
// scribble degrades to a skewed histogram, never a panic.
func (b *Backend) consumeSubBatch() {
	n := b.ring.readU32(hdrSubCount)
	if n == 0 {
		return
	}
	b.ring.writeU32(hdrSubCount, 0)
	if n > slotCount {
		n = slotCount
	}
	perf.Spend(b.driverK.Env, b.driverVM.Name, trace.LayerBE, "batch-descriptor", perf.CostBatchDescriptor)
	b.posted.drop()
	tr := trace.Get(b.driverK.Env)
	tr.Add("cvd.backend.batches", 1)
	tr.ObserveCount("cvd.backend.batch", uint64(n))
}

// heartbeatPending reports whether the watchdog has posted a heartbeat this
// backend has not yet looked at. Observed-but-unacked beats (dropped or
// deferred by fault injection) do not count — the dispatcher must not spin
// on a beat it has already decided about.
func (b *Backend) heartbeatPending() bool {
	return b.ring.readU32(hdrHbReq) != b.hbSeen
}

// serviceHeartbeat echoes a pending watchdog heartbeat: the cheap ring no-op
// driver-VM supervision uses as its liveness probe. A healthy backend copies
// the request sequence into the ack word and completes toward the frontend;
// the "cvd.heartbeat.drop" fault point swallows the ack (a driver VM too
// wedged to answer), and "cvd.heartbeat.delay" defers it by the scripted
// payload (a driver VM that is slow but alive — the false-positive hazard
// the watchdog's miss threshold exists for).
func (b *Backend) serviceHeartbeat() {
	req := b.ring.readU32(hdrHbReq)
	if req == b.hbSeen {
		return
	}
	b.hbSeen = req
	if faults.Point(b.driverK.Env, "cvd.heartbeat.drop") != nil {
		trace.Get(b.driverK.Env).Add("cvd.heartbeat.dropped", 1)
		return
	}
	if d := faults.Point(b.driverK.Env, "cvd.heartbeat.delay"); d != nil {
		b.hv.Env.After(sim.Duration(d.Arg), func() {
			if b.ringCurrent() {
				b.ackHeartbeat(req)
			}
		})
		return
	}
	b.ackHeartbeat(req)
	b.posted.drop() // the ack's interrupt spends virtual time
}

// ackHeartbeat copies heartbeat sequence req into the ack word and
// completes toward the frontend.
func (b *Backend) ackHeartbeat(req uint32) {
	b.ring.writeU32(hdrHbAck, req)
	trace.Get(b.driverK.Env).Add("cvd.heartbeat.acked", 1)
	b.complete(0, true)
}

// halt is the backend's one teardown, shared by Stop and Kill: it latches
// stopped, tears down every cached guest-buffer mapping (a dead driver VM's
// EPT must not keep windows into guest data buffers) and leaves its handler
// set. It runs again on a backend already halted, so a Stop after a death
// still drops whatever a handler thread left in flight mapped since.
func (b *Backend) halt() {
	b.stopped = true
	if b.mapc != nil {
		b.mapc.dropAll()
	}
	b.pool.Leave(b)
}

// Kill terminates the backend as an injected driver-VM crash would: the
// dispatcher exits without answering anything, and the death notification
// fires. Tests and fault harnesses use it to crash one specific channel's
// backend (the probabilistic "cvd.backend.die" point cannot aim); the
// point itself kills the backend through here. Killing a stopped backend
// fires no death notification.
func (b *Backend) Kill() {
	if !b.stopped {
		b.halt()
		if fn := b.onDeath; fn != nil {
			b.onDeath = nil
			fn()
		}
	}
	b.doorbell.Trigger()
}

// Alive reports whether the backend's dispatcher is still serving the ring.
func (b *Backend) Alive() bool { return !b.stopped }

// OnDeath registers fn to run once if the backend dies abnormally (injected
// crash or Kill; not an orderly Stop). Supervision registers here so an
// explicit fault-plan kill is detected immediately rather than after K
// missed heartbeats. A backend already dead fires fn at once.
func (b *Backend) OnDeath(fn func()) {
	if b.stopped {
		fn()
		return
	}
	b.onDeath = fn
}

// handle executes one forwarded operation on handler thread sp, reusing the
// thread's op record. It deserializes, serves the request's trace ID on sp,
// adopts a driver-VM task, runs the file operation, and writes the response
// unless the ring's epoch moved on.
func (b *Backend) handle(sp *sim.Proc, op *forwarded, req request) {
	tr := trace.Get(b.driverK.Env)
	rid := uint64(req.rid)
	// The handler proc serves the forwarded request while it runs, so every
	// charge it makes and every layer that only sees the Env (hypervisor
	// memory ops, IOMMU) lands on the right request. A handler serves many
	// requests in turn, one at a time.
	sp.SetRID(rid)
	defer sp.SetRID(0)
	perf.Spend(b.driverK.Env, b.driverVM.Name, trace.LayerBE, "dispatch", perf.CostPost) // deserialize the request
	*op = forwarded{conduit: remoteConduit{hv: b.hv, guest: b.guestVM, drv: b.driverVM, ref: req.ref}}
	b.proc.AdoptTask(&op.task, sp)
	op.ctx.Task = &op.task
	if b.mapc != nil && req.flags&reqFlagMapHint != 0 {
		// The frontend kept this data buffer's grant alive across requests:
		// route the operation's data movement through the grant-map cache.
		// Read buffers are written (copy-to-user), write buffers are read
		// (copy-from-user).
		conduit := &op.conduit
		switch req.op {
		case opRead:
			conduit.mapc, conduit.mapKind = b.mapc, grant.KindCopyTo
		case opWrite:
			conduit.mapc, conduit.mapKind = b.mapc, grant.KindCopyFrom
		}
		conduit.fileID = req.fileID
		conduit.bufVA = mem.GuestVirt(req.arg0)
		conduit.bufLen = req.arg1
	}
	restore := op.task.Mark(&op.conduit)
	estart := tr.Now()
	ret, errno := b.execute(op, req)
	restore()
	if tr != nil {
		tr.Group(rid, b.driverVM.Name, trace.LayerBE, "execute "+opName(req.op), estart, tr.Now())
	}
	perf.Spend(b.driverK.Env, b.driverVM.Name, trace.LayerBE, "complete", perf.CostComplete)
	if !b.ringCurrent() {
		// The backend died (Stop, an injected driver-VM crash) or was
		// superseded (the ring's restart epoch moved on) while this handler
		// was executing. The ring now belongs to a successor backend and the
		// frontend has already been failed with EREMOTE for this slot — or
		// the slot has been reclaimed and reposted in the new epoch; a late
		// response here would corrupt the successor's view of the slot.
		return
	}
	b.ring.writeResponse(req.slot, ret, int32(errno))
	b.OpsHandled++
	tr.Add("cvd.backend.ops", 1)
	b.complete(rid, false)
}

// complete signals the frontend that a response is ready: a cheap
// shared-page observation if a requester is spinning, an inter-VM interrupt
// otherwise. rid labels the crossing's trace span (0 for heartbeat acks and
// untraced runs). With batching configured, interrupt-path completions join
// the pending batch and share one response IRQ; heartbeat acks (hb) bypass
// the batch so watchdog latency is never inflated — a flag, not a rid==0
// check, because rids are only allocated when a tracer is installed.
func (b *Backend) complete(rid uint64, hb bool) {
	spinning := b.ring.readU32(hdrFrontendPoll) > 0
	if !spinning && b.coalesce > 0 && !hb {
		b.batch(b.hv.Env, b.flushResp)
		return
	}
	cross(b.hv, rid, spinning, b.guestVM, b.vecResp, b.frontendDoorbell)
}

// flushResp sends the one response IRQ covering every completion batched
// since the last flush. The completed slots' descriptors (done bits) are
// already in the ring — writeResponse published them — so the frontend's
// scan collects the whole vector off this single interrupt. A flush whose
// backend has died or been superseded sends nothing: the reconnect sweep
// owns those completions now.
func (b *Backend) flushResp() {
	n := b.take()
	if n == 0 || !b.ringCurrent() {
		return
	}
	tr := trace.Get(b.hv.Env)
	tr.Add("cvd.backend.resp.flushes", 1)
	if n > 1 {
		tr.Add("cvd.backend.resp.coalesced", uint64(n-1))
	}
	tr.ObserveCount("cvd.backend.resp.batch", uint64(n))
	b.hv.SendInterrupt(b.guestVM, b.vecResp)
}

func (b *Backend) execute(op *forwarded, req request) (int32, kernel.Errno) {
	ops, task, c := b.node.Ops, &op.task, &op.ctx
	switch req.op {
	case opOpen:
		f := &kernel.File{Node: b.node, Flags: devfileFlags(req.arg0), Proc: b.proc}
		c.File = f
		if err := ops.Open(c); err != nil {
			return -1, kernel.ErrnoOf(err)
		}
		b.files[req.fileID] = f
		return 0, 0
	case opRelease:
		f, ok := b.files[req.fileID]
		if !ok {
			if _, warm := b.warmFiles[req.fileID]; warm {
				// A file the predecessor held, released before any other
				// operation forced a warm reopen on the successor. Re-opening
				// it just to close it again would be wasted driver work: drop
				// the warm records and report success.
				delete(b.warmFiles, req.fileID)
				delete(b.warmVMAs, req.fileID)
				if b.mapc != nil {
					b.mapc.release(req.fileID)
				}
				return 0, 0
			}
			return -1, kernel.EINVAL
		}
		delete(b.files, req.fileID)
		delete(b.vmas, req.fileID)
		if b.mapc != nil {
			// The file is going away: its cached buffer mappings with it.
			b.mapc.release(req.fileID)
		}
		c.File = f
		return 0, kernel.ErrnoOf(ops.Release(c))
	}
	f, ok := b.lookupFile(task, req.fileID)
	if !ok {
		return -1, kernel.EINVAL
	}
	c.File = f
	switch req.op {
	case opRead:
		n, err := ops.Read(c, mem.GuestVirt(req.arg0), int(req.arg1))
		return int32(n), kernel.ErrnoOf(err)
	case opWrite:
		n, err := ops.Write(c, mem.GuestVirt(req.arg0), int(req.arg1))
		return int32(n), kernel.ErrnoOf(err)
	case opIoctl:
		ret, err := ops.Ioctl(c, devfileCmd(req.arg0), mem.GuestVirt(req.arg1))
		return ret, kernel.ErrnoOf(err)
	case opMmap:
		v := &kernel.VMA{Proc: b.proc, Start: mem.GuestVirt(req.arg0), Len: req.arg1, File: f, Pgoff: req.arg2}
		if err := ops.Mmap(c, v); err != nil {
			return -1, kernel.ErrnoOf(err)
		}
		b.recordVMA(req.fileID, v)
		return 0, 0
	case opMunmap:
		v := b.vmas[req.fileID][mem.GuestVirt(req.arg0)]
		if v == nil {
			return -1, kernel.EINVAL
		}
		delete(b.vmas[req.fileID], mem.GuestVirt(req.arg0))
		// Destroy the hypervisor (EPT) mappings for every page of the
		// range; the guest kernel has already cleared its own page tables
		// (§5.2). Pages that were never faulted in simply return an error
		// we ignore.
		for off := uint64(0); off < v.Len; off += mem.PageSize {
			_ = task.Remote.UnmapPage(v.Start + mem.GuestVirt(off))
		}
		if v.OnUnmap != nil {
			return 0, kernel.ErrnoOf(v.OnUnmap(c, v))
		}
		return 0, 0
	case opFault:
		v := b.vmas[req.fileID][mem.GuestVirt(req.arg1)]
		if v == nil {
			return -1, kernel.EINVAL
		}
		return 0, kernel.ErrnoOf(ops.Fault(c, v, mem.GuestVirt(req.arg0)))
	case opPoll:
		pt := b.driverK.NewPollTable()
		mask := ops.Poll(c, pt)
		if uint64(mask)&req.arg0 == 0 {
			// Nothing ready: arm a poll-wake notification so the guest
			// kernel can re-evaluate when a driver wait queue fires. The
			// scheduler wake-up of the notifier is charged before the
			// notification crosses.
			env := b.driverK.Env
			pt.Event().OnFire(func() {
				env.After(perf.CostWakeup, func() { b.notify(notifPollWake) })
			})
		}
		return int32(mask), 0
	case opFasync:
		if err := ops.Fasync(c, req.arg0 != 0); err != nil {
			return -1, kernel.ErrnoOf(err)
		}
		f.FasyncOn = req.arg0 != 0
		return 0, 0
	}
	return -1, kernel.ENOSYS
}

// lookupFile resolves a forwarded operation's fileID against the backend's
// open-file table, lazily re-opening a file inherited from a handover
// predecessor. The reopen runs in the calling operation's own handler-task
// context, so its driver work is charged to (and traced under) the request
// that forced it. A reopen failure surfaces as an unknown fileID — EINVAL,
// the same honest errno a stale fileID has always earned.
func (b *Backend) lookupFile(task *kernel.Task, fileID uint16) (*kernel.File, bool) {
	if f, ok := b.files[fileID]; ok {
		return f, true
	}
	wf, ok := b.warmFiles[fileID]
	if !ok {
		return nil, false
	}
	delete(b.warmFiles, fileID)
	ops := b.node.Ops
	f := &kernel.File{Node: b.node, Flags: wf.Flags, Proc: b.proc}
	if err := ops.Open(&kernel.FopCtx{Task: task, File: f}); err != nil {
		delete(b.warmVMAs, fileID)
		return nil, false
	}
	f.FasyncOn = wf.FasyncOn
	b.files[fileID] = f
	// Replay the predecessor's mmaps so a post-handover munmap/fault against
	// an inherited mapping finds its VMA. EPT entries are rebuilt on demand
	// by the fault path, exactly as after a guest-side first touch.
	for _, wv := range b.warmVMAs[fileID] {
		v := &kernel.VMA{Proc: b.proc, Start: wv.Start, Len: wv.Len, File: f, Pgoff: wv.Pgoff}
		if err := ops.Mmap(&kernel.FopCtx{Task: task, File: f}, v); err == nil {
			b.recordVMA(fileID, v)
		}
	}
	delete(b.warmVMAs, fileID)
	b.WarmReopens++
	trace.Get(b.driverK.Env).Add("cvd.handover.warm_reopens", 1)
	return f, true
}

// recordVMA files a driver mapping under its file, keyed by start address,
// where a later munmap or fault of the file looks it up.
func (b *Backend) recordVMA(fileID uint16, v *kernel.VMA) {
	m := b.vmas[fileID]
	if m == nil {
		m = make(map[mem.GuestVirt]*kernel.VMA)
		b.vmas[fileID] = m
	}
	m[v.Start] = v
}
