// Package perf holds the calibrated cost model for the Paradice simulation.
//
// Every constant here is the simulated time charged for one architectural
// action. The values are calibrated so that the microbenchmarks of the
// paper's §6.1.1 come out at the numbers the authors measured on their
// i7-3770 testbed (35 µs forwarded no-op with interrupts, 2 µs with polling,
// 39/55/296/179 µs mouse latency, 1 Gbps wire rate), and every figure is
// then *derived* from these shared constants — no experiment has private
// tuning knobs. EXPERIMENTS.md documents the calibration. Spend is the only
// call that charges them; a process that waits rather than works sleeps or
// waits on an event instead.
package perf

import (
	"paradice/internal/sim"
	"paradice/internal/trace"
)

const (
	// CostSyscall is the entry+exit cost of a system call in the guest or
	// native kernel.
	CostSyscall = 500 * sim.Nanosecond

	// CostInterVMIRQ is the delivery latency of one inter-VM interrupt
	// (event channel + vCPU kick). The paper attributes "most" of the 35 µs
	// no-op forwarding latency to the two inter-VM interrupts of a
	// round trip (§6.1.1).
	CostInterVMIRQ = 16 * sim.Microsecond

	// CostPost is the frontend's cost to serialize a file operation's
	// arguments into a shared-page slot (or the backend's to read them).
	CostPost = 400 * sim.Nanosecond

	// CostComplete is the backend's cost to serialize a response (or the
	// frontend's to read it).
	CostComplete = 300 * sim.Nanosecond

	// CostPollCross is the latency for a polling peer to observe a
	// shared-page update (cache-line transfer between cores). Together with
	// CostPost/CostComplete this yields the ~2 µs polled no-op of §6.1.1.
	CostPollCross = 300 * sim.Nanosecond

	// CostHypercall is one driver-VM -> hypervisor transition (VM exit,
	// dispatch, VM entry).
	CostHypercall = 400 * sim.Nanosecond

	// CostVMExitIRQ is the extra latency a hardware interrupt suffers when
	// it must be routed through the hypervisor into a VM (device
	// assignment). Calibrated from the paper's mouse numbers:
	// native 39 µs vs direct assignment 55 µs.
	CostVMExitIRQ = 16 * sim.Microsecond

	// CostWakeup is the scheduler latency to wake a thread sleeping on a
	// driver wait queue (wait-queue wake to running), calibrated from the
	// paper's native mouse latency: event at driver -> woken reader's next
	// read reaching the driver took 39 µs natively, which is one wait-queue
	// wake plus a system call. The Paradice mouse path crosses several such
	// wakes, which is where its 296 µs comes from.
	CostWakeup = 38 * sim.Microsecond

	// CostNativeIRQ is the device-interrupt delivery latency on bare metal
	// (no hypervisor in the path).
	CostNativeIRQ = 500 * sim.Nanosecond

	// CostCopyPerPage is the per-page cost of the hypervisor's assisted
	// copy: one guest page-table walk, one EPT walk, and the copy itself.
	CostCopyPerPage = 300 * sim.Nanosecond

	// CostCopyPerKB is the incremental copy cost per kilobyte
	// (~3.3 GB/s effective memcpy bandwidth).
	CostCopyPerKB = 300 * sim.Nanosecond

	// CostMapPage is the hypervisor work to map one page cross-VM: fix the
	// EPT, walk and fix the guest page table's last level.
	CostMapPage = 2 * sim.Microsecond

	// CostMapCacheHit is the backend's cost to find and authorize one cached
	// grant mapping (a lookup plus the ref/kind/range check) before moving
	// data through it — the amortized replacement for a full grant validation
	// plus per-page walks on every request.
	CostMapCacheHit = 250 * sim.Nanosecond

	// CostMapMemcpyPerKB is the per-kilobyte cost of moving data through an
	// already-established cross-VM mapping: a plain memcpy with no guest
	// page-table or EPT software walks in the loop (~6.7 GB/s, vs the
	// assisted copy's 3.3 GB/s effective bandwidth). Together with
	// CostMapPage — charged per page at BOTH establishment and teardown —
	// this produces the copy-vs-map crossover of the "Bulk transfer" section
	// in EXPERIMENTS.md: because the per-operation saving is itself roughly
	// per-page, the rotation overhead amortizes away near a fixed reuse rate
	// (~5 operations per mapping) at any size, and beyond it the cached
	// mapping wins by a margin that grows with transfer size.
	CostMapMemcpyPerKB = 150 * sim.Nanosecond

	// CostPageFault is the guest-side cost of taking a page fault and
	// entering the fault handler.
	CostPageFault = 1 * sim.Microsecond

	// CostGrantDeclare is the frontend cost of writing one grant entry and
	// the hypervisor cost of validating one memory operation against it.
	CostGrantDeclare = 150 * sim.Nanosecond

	// CostGrantEntry is the incremental cost of each additional grant entry
	// in a batched declare hypercall (Config.TLB arms it): the first entry
	// pays the full CostGrantDeclare (the crossing plus the slot write),
	// later entries in the same vectored call only pay the slot write.
	CostGrantEntry = 30 * sim.Nanosecond

	// CostTLBHit is the hypervisor's cost to serve one page translation (or
	// one cached grant authorization) out of the software TLB (Config.TLB)
	// instead of performing the full guest-PT + EPT walk. Calibrated well
	// below CostCopyPerPage/CostGrantDeclare — a tagged cache lookup, no
	// page-table memory touches.
	CostTLBHit = 40 * sim.Nanosecond

	// PollWindow is how long the CVD frontend/backend busy-poll the shared
	// page before falling back to interrupts (§5.1: 200 µs, chosen
	// empirically).
	PollWindow = 200 * sim.Microsecond

	// CostWatchdogPing is the supervisor's work to post one heartbeat into a
	// channel's ring page (a header write plus the doorbell bookkeeping).
	// The heartbeat round trip itself then pays the normal interrupt
	// delivery costs, so a healthy ack lands ~2·CostInterVMIRQ later.
	CostWatchdogPing = 500 * sim.Nanosecond

	// CostDriverVMRestart is a full driver-VM reboot: tearing down the dead
	// VM, booting a fresh kernel, and re-initializing every device driver
	// (§8's "simply restarting the driver VM" is simple, not free). The
	// value models a minimal driver-domain boot; together with the
	// watchdog's detection latency it makes MTTR a measurable virtual-clock
	// quantity — see the "Recovery" section of EXPERIMENTS.md.
	CostDriverVMRestart = 100 * sim.Millisecond

	// CostHandoverSwitch is the commit step of a planned driver-VM handover:
	// re-binding every channel's ring to the pre-booted, pre-warmed successor
	// and re-pointing device assignments. The boot itself (CostDriverVMRestart)
	// was already paid during the prepare stage, while the predecessor was
	// still serving — which is why a handover's service pause is this, not
	// that.
	CostHandoverSwitch = 100 * sim.Microsecond

	// CostBatchDescriptor is the backend's cost to deserialize one
	// submission batch descriptor (the count word in the ring header)
	// when a flushed doorbell announces a vector of posted slots. Paid once
	// per consumed batch, regardless of batch size — the amortization that
	// makes multi-entry submission cheaper than per-post doorbells.
	CostBatchDescriptor = 100 * sim.Nanosecond

	// AdaptivePollGap is the adaptive transport's stance threshold: when a
	// channel's EWMA of inter-arrival gaps drops below this, requests are
	// arriving faster than an interrupt round trip can be amortized
	// (2·CostInterVMIRQ — the two crossings a forwarded operation pays) and
	// the channel switches to poll stance; above it, interrupts are
	// re-armed, NAPI-style.
	AdaptivePollGap = 2 * CostInterVMIRQ

	// CostNetmapSync is the fixed kernel cost of one netmap TX-ring sync
	// (the poll handler's ring scan and doorbell).
	CostNetmapSync = 600 * sim.Nanosecond

	// CostNetmapPerPkt is the driver's per-descriptor cost within a sync.
	CostNetmapPerPkt = 150 * sim.Nanosecond
)

// Copy returns the simulated duration of a hypervisor-assisted copy of n
// bytes spanning the given number of pages.
func Copy(nbytes, npages int) sim.Duration {
	return sim.Duration(npages)*CostCopyPerPage + sim.Duration(nbytes)*CostCopyPerKB/1024
}

// MapCopy returns the duration of moving nbytes through an established
// grant mapping (no per-page walks; the mapping setup was charged once at
// CostMapPage per page when the cache entry was created).
func MapCopy(nbytes int) sim.Duration {
	return sim.Duration(nbytes) * CostMapMemcpyPerKB / 1024
}

// Spend advances the calling process by d and, under a tracer, records the
// interval as a leaf span in vm's layer, under the request bound to the
// process (0 for background work). In callback context it does nothing:
// interrupt handlers are instantaneous, their latency charged at delivery.
// So a span covers exactly the one charge it names: spans of one process
// cannot nest or overlap, and a wait between charges is never work.
func Spend(e *sim.Env, vm, layer, name string, d sim.Duration) {
	p := e.CurrentProc()
	if p == nil {
		return
	}
	tr := trace.Get(e) // nil when tracing is off: RIDOf and Span no-op
	rid, start := tr.RIDOf(p), e.Now()
	p.Sleep(d)
	tr.Span(rid, vm, layer, name, start, e.Now())
}
