package cvd

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"paradice/internal/faults"
	"paradice/internal/hv"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/trace"
)

// Backend attachment and driver VM replacement (§8): "a malicious guest VM
// can break the device ... One possible solution is to detect the broken
// device and restart it by simply restarting the driver VM." The frontends —
// guest state — survive; each channel's backend is rebuilt against the
// replacement driver VM in two steps, the same two steps Connect attaches a
// channel's first backend with. Prepare holds every fallible step but the
// device lookup and touches nothing the predecessor depends on. Bind bumps
// the ring epoch only after its lookup succeeded, has no failure path after
// the bump, and lets no simulated time pass before the rebind, so no post
// can observe a ring that has an epoch but no owner. A crash restart
// (Reconnect) runs both steps back to back against a dead or wedged
// predecessor (cold); a planned handover (PrepareHandover, then Bind)
// replaces a live, drained predecessor (warm), whose open files and
// bulk-grant mappings carry over.

// warmMap is one guest data buffer pre-mapped into the successor driver VM
// during prepare, keyed by the bulk grant it maps.
type warmMap struct {
	key bulkKey
	m   *hv.GuestMapping
}

// HandoverPrep is one channel's successor-side state, consumed by exactly
// one of Bind (the replacement commits) or Discard (a handover aborts).
type HandoverPrep struct {
	fe    *Frontend
	vm    *hv.VM
	k     *kernel.Kernel
	beGPA mem.GuestPhys
	proc  *kernel.Process
	warm  bool
	maps  []warmMap
}

// Reconnect binds an existing frontend to a freshly booted driver VM after
// its predecessor died: operations in flight fail with EREMOTE, and every
// cache starts cold. On error the frontend and the driver VM are as before.
func Reconnect(fe *Frontend, h *hv.Hypervisor, driverVM *hv.VM, driverK *kernel.Kernel, devicePath string) (*Backend, error) {
	prep, err := prepare(fe, h, driverVM, driverK, false)
	if err != nil {
		return nil, err
	}
	be, err := prep.Bind(devicePath)
	if err != nil {
		prep.release()
	}
	return be, err
}

// PrepareHandover pre-builds one channel's successor state against a freshly
// booted (but not yet serving) driver VM while the predecessor keeps serving
// the ring untouched: the warm replacement path. The "handover.warm.fail"
// fault point injects a pre-warm failure (a successor that cannot re-probe
// the device state it needs).
func PrepareHandover(fe *Frontend, h *hv.Hypervisor, succVM *hv.VM, succK *kernel.Kernel) (*HandoverPrep, error) {
	return prepare(fe, h, succVM, succK, true)
}

// prepare shares the ring into the successor VM and pre-creates the
// successor backend's kernel process. On the warm path it also pre-maps the
// frontend's live bulk grants, paying the per-page mapping walks while the
// predecessor still serves instead of as post-switch cache misses. On any
// error nothing leaks: each failure exit undoes the steps before it.
func prepare(fe *Frontend, h *hv.Hypervisor, vm *hv.VM, k *kernel.Kernel, warm bool) (*HandoverPrep, error) {
	if warm {
		if fe.backend == nil || fe.backend.stopped {
			return nil, fmt.Errorf("cvd: handover from a dead backend on %s (use Reconnect)", fe.path)
		}
		if d := faults.Point(h.Env, "handover.warm.fail"); d != nil {
			return nil, d.Error()
		}
	}
	beGPA, err := h.SharePage(fe.guestVM, fe.ring.acc.GPA, vm)
	if err != nil {
		return nil, err
	}
	proc, err := k.NewProcess("cvd-backend-" + fe.guestVM.Name)
	if err != nil {
		_ = vm.EPT.Unmap(beGPA) // mapped just above: cannot fail
		return nil, err
	}
	prep := &HandoverPrep{fe: fe, vm: vm, k: k, beGPA: beGPA, proc: proc, warm: warm}
	if !warm {
		return prep, nil
	}
	if fe.mapCache {
		// Sorted for a deterministic charge order.
		keys := make([]bulkKey, 0, len(fe.bulk))
		for key := range fe.bulk {
			keys = append(keys, key)
		}
		slices.SortFunc(keys, bulkKey.compare)
		for _, key := range keys {
			bg := fe.bulk[key]
			m, err := h.MapGuestBuffer(fe.guestVM, bg.ref, key.kind, bg.va, bg.n, vm)
			if err != nil {
				prep.release()
				return nil, err
			}
			prep.maps = append(prep.maps, warmMap{key: key, m: m})
		}
	}
	trace.Get(h.Env).Add("cvd.handover.prewarmed_maps", uint64(len(prep.maps)))
	return prep, nil
}

// Discard releases a prep that will not be bound (the handover aborted): the
// pre-established successor mappings are torn down. The predecessor never
// knew the prep existed, so there is nothing else to undo; the successor VM
// is abandoned whole.
func (p *HandoverPrep) Discard() {
	for _, wm := range p.maps {
		wm.m.Unmap()
	}
	p.maps = nil
}

// release undoes prepare in full, for a prep whose VM lives on: the
// pre-maps, the ring's mapping in the VM, and the backend process's
// page-table frame.
func (p *HandoverPrep) release() {
	p.Discard()
	_ = p.vm.EPT.Unmap(p.beGPA) // prepare mapped it: cannot fail
	p.k.FreeFrame(p.proc.PT.Root())
}

// Bind commits the channel to the prepared successor. On the warm path the
// caller must have drained the ring (frontend in drain mode, occupancy zero),
// so the predecessor's file table is stable and nothing is in flight. The
// device lookup is its one failure, and it changes nothing.
func (p *HandoverPrep) Bind(devicePath string) (*Backend, error) {
	node, ok := p.k.LookupDevice(devicePath)
	if !ok {
		return nil, fmt.Errorf("cvd: no device %s in %s", devicePath, p.k.Name)
	}
	return p.bind(node), nil
}

// bind attaches the backend for node: the one place a backend is built, its
// map cache armed and the frontend's doorbell handed to it, for a channel's
// first backend (Connect) and every successor alike.
func (p *HandoverPrep) bind(node *kernel.DeviceNode) *Backend {
	fe := p.fe
	if fe.backend != nil {
		// Enter the next restart epoch BEFORE the successor backend attaches
		// and snapshots the word (Backend.epoch). Without this, a late
		// pre-restart handler could complete into a slot that was reclaimed
		// and reposted in the new epoch. A fresh ring stays in epoch 0.
		fe.ring.writeU32(hdrEpoch, fe.ring.readU32(hdrEpoch)+1)
	}
	// The successor takes the frontend's transport settings, with a fresh
	// stance: the frontend keeps its mode and keeps flushing submission
	// descriptors, so the new backend must keep polling, consuming and
	// completion-batching alike.
	pol := policy{mode: fe.mode, window: fe.window, coalesce: fe.coalesce}
	be := newBackend(p.proc, fe.hv, p.vm, fe.guestVM, p.k, node,
		p.beGPA, pol, p.vm.AllocVector(), fe.vecResp, fe.vecNotif)
	if fe.mapCache {
		be.enableMapCache(fe.grants)
		// Seed the pre-established mappings (none on the cold path, where
		// live bulk grants simply miss once and re-map). Each is injected
		// only if its bulk grant is still the one it was mapped under — a
		// release or buffer change that slipped in via an in-flight operation
		// during the drain revoked the grant, and a mapping under a revoked
		// grant must not serve anything.
		for _, wm := range p.maps {
			bg, live := fe.bulk[wm.key]
			if !live || bg.ref != wm.m.Ref || wm.m.Dead() {
				wm.m.Unmap()
				continue
			}
			be.mapc.entries[wm.key] = wm.m
		}
		p.maps = nil
	}
	if p.warm {
		// Files the guest holds that the successor's driver has never seen:
		// the successor re-opens them lazily on first use instead of
		// invalidating every guest descriptor the way a crash restart does.
		be.warmFiles, be.warmVMAs = fe.backend.openFiles()
	}
	be.frontendDoorbell = fe.scanDone
	fe.backend = be
	if !p.warm {
		fe.failInflight()
	}
	return be
}

// openFiles hands a warm successor the backend's open files and their
// mmaps, each file's mmaps in address order so their replay is
// deterministic.
func (b *Backend) openFiles() (map[uint16]*kernel.File, map[uint16][]*kernel.VMA) {
	vmas := make(map[uint16][]*kernel.VMA)
	for id := range b.files {
		for _, v := range b.vmas[id] {
			vmas[id] = append(vmas[id], v)
		}
		slices.SortFunc(vmas[id], func(a, b *kernel.VMA) int { return cmp.Compare(a.Start, b.Start) })
	}
	return maps.Clone(b.files), vmas
}

// Stop terminates the backend: the dispatcher exits, and no part of the
// backend touches the ring page again. The ordering is deliberate and
// load-bearing for replacement: stopped is set BEFORE the doorbell fires,
// so by the time Stop returns, (i) the dispatcher can only observe
// stopped=true and exit, and (ii) any in-flight handler thread — which
// checks stopped after executing its operation, before writing a response —
// will discard its result rather than scribble on a ring a successor
// backend may by then own. In-flight operations are therefore never
// answered by a stopped backend; Reconnect fails them with EREMOTE.
// Part of driver VM teardown; audited by the faults stress harness.
func (b *Backend) Stop() {
	b.halt()
	b.doorbell.Trigger()
}

// failInflight completes every non-free slot with EREMOTE and wakes its
// waiter — requests the dead driver VM will never answer. Slots already in
// slotDone keep their real response: the old backend finished the work but
// its completion interrupt may have been lost with the driver VM, so only
// the waiter's event needs (re-)triggering. Abandoned slots — their issuer
// already timed out with ETIMEDOUT — have no waiter and are simply
// reclaimed; the dead backend can never deliver their late response.
func (fe *Frontend) failInflight() {
	for s := 0; s < slotCount; s++ {
		st := fe.ring.slotState(s)
		if fe.abandoned[s] && st != slotFree {
			fe.abandoned[s] = false
			// recycleSlot, not a bare state write: a slot abandoned in
			// slotPosted/slotRunning still carries the trace request ID in
			// its sErrno bytes (the request-direction reuse); freeing it
			// without scrubbing would leave a stale RID where the next
			// reader of the slot expects an errno.
			fe.ring.recycleSlot(s)
			continue
		}
		switch st {
		case slotPosted, slotRunning:
			fe.ring.writeResponse(s, -1, int32(kernel.EREMOTE))
			fe.respEvents[s].Trigger()
		case slotDone:
			fe.respEvents[s].Trigger()
		}
	}
}
