// Package cvd implements Paradice's Common Virtual Driver — the single pair
// of paravirtual drivers that serves every device class (§3.2.1). The
// frontend lives in a guest VM kernel and exposes a virtual device file; the
// backend lives in the driver VM kernel and replays forwarded file
// operations against the real driver. They communicate through a real
// shared memory page (the ring) and inter-VM interrupts, with an optional
// polling mode for high-performance workloads (§5.1).
//
// Before forwarding an operation, the frontend declares the operation's
// legitimate memory operations in the guest's grant table — derived from the
// file operation's own arguments, from the ioctl command-number macros, or
// from the analyzer's extracted slices (§4.1) — and the backend attaches the
// grant reference to every hypervisor memory-operation request it makes on
// the driver's behalf.
package cvd

import (
	"encoding/binary"

	"paradice/internal/grant"
	"paradice/internal/mem"
)

// Op codes of forwarded file operations.
const (
	opNone    = 0
	opOpen    = 1
	opRelease = 2
	opRead    = 3
	opWrite   = 4
	opIoctl   = 5
	opMmap    = 6
	opMunmap  = 7
	opFault   = 8
	opPoll    = 9
	opFasync  = 10
)

// Slot states.
const (
	slotFree    = 0
	slotPosted  = 1
	slotRunning = 2
	slotDone    = 3
)

// Ring page layout: a 96-byte header followed by 100 40-byte slots — the
// paper's cap of 100 queued operations per guest VM falls out of the slot
// count. The header words at offsets 0, 28, 32 and 40–56 are unused; the
// other words keep their offsets because the fuzz seed corpora steer by
// offset.
const (
	hdrBackendPoll  = 4  // u32: backend is spinning on the page
	hdrFrontendPoll = 8  // u32: count of requesters spinning for responses
	hdrNotifBits    = 12 // u32: pending notification bits
	hdrHbReq        = 16 // u32: watchdog heartbeat sequence (frontend side)
	hdrHbAck        = 20 // u32: last heartbeat sequence the backend echoed
	hdrEpoch        = 24 // u32: restart epoch of the backend owning the ring
	hdrSubCount     = 36 // u32: submission batch descriptor count since last consume
	hdrDoneBits     = 60 // 4×u32 bitmap of completed slots (bit s = slot s)
	hdrSize         = 96

	// bitmapWords is the width of the completion descriptor bitmap: 4×32 =
	// 128 bits covers slotCount with room to spare. The bitmap is ADVISORY —
	// either side may scribble it, so the reader validates every bit against
	// the actual slot state and ignores bits at or beyond slotCount.
	bitmapWords = 4

	slotSize  = 40
	slotCount = 100

	// Slot field offsets.
	sState = 0  // u32
	sOp    = 4  // u8
	sFile  = 6  // u16: frontend-assigned file instance id
	sRef   = 8  // u32: grant reference (0 = none)
	sSeq   = 12 // u32: FIFO sequence
	sArg0  = 16 // u64
	sArg1  = 24 // u64
	sRet   = 32 // i32 (response); u32 arg2 low half in requests
	sErrno = 36 // i32 (response); u32 trace request ID in requests
)

// Request flag bits, carried in bits 8..15 of the slot's op word.
const (
	// reqFlagMapHint marks a request whose data movement should go through
	// the backend's grant-map cache: the frontend kept the grant alive
	// across requests, so a mapping established for it stays valid and
	// amortizes. Requests without the hint (one-shot grants, ioctls) use the
	// per-request assisted copy.
	reqFlagMapHint = 1 << 0
)

// Notification bits (backend -> frontend).
const (
	notifPollWake = 1 << 0 // a driver wait queue woke; re-evaluate poll
	notifSIGIO    = 1 << 1 // kill_fasync fired; deliver SIGIO
)

// page wraps one side's view of the shared frame — a guest-physical
// accessor through that VM's EPT — with typed field access. All channel
// state crosses the VM boundary through these bytes and nothing else. The
// accessor is concrete, not a grant.Accessor, so the small buffers of
// writeU32 and writeU64 stay on the stack.
type page struct {
	acc *grant.GuestAccessor
}

// view is one scan's read-only window onto the ring page: one checked
// access, then plain loads. The accessor keeps the page's resolution and
// revalidates it against the EPT generation on every call, so taking a view
// costs a comparison until the EPT changes. A view aliases the live frame,
// so writes made through the page show in it. Take a fresh view per scan
// and never hold one across a yield (Sleep, perf.Spend, Wait), where the peer
// may rewrite the page or the hypervisor may revoke the driver VM's mapping:
// only a new call sees the revocation.
type view struct{ b *[mem.PageSize]byte }

func (p page) view() view {
	b, err := p.acc.Page()
	if err != nil {
		panic("cvd: ring page inaccessible: " + err.Error())
	}
	return view{b}
}

func (v view) u32(off int) uint32 { return binary.LittleEndian.Uint32(v.b[off:]) }
func (v view) u64(off int) uint64 { return binary.LittleEndian.Uint64(v.b[off:]) }

func (v view) slotState(slot int) uint32 { return v.u32(slotOff(slot) + sState) }

func (p page) readU32(off int) uint32 { return p.view().u32(off) }

func (p page) writeU32(off int, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if err := p.acc.WriteAt(off, b[:]); err != nil {
		panic("cvd: ring page inaccessible: " + err.Error())
	}
}

func (p page) writeU64(off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if err := p.acc.WriteAt(off, b[:]); err != nil {
		panic("cvd: ring page inaccessible: " + err.Error())
	}
}

func slotOff(slot int) int { return hdrSize + slot*slotSize }

// request is a decoded slot request.
type request struct {
	slot   int
	op     uint8
	flags  uint8 // reqFlag bits
	fileID uint16
	ref    uint32
	seq    uint32
	arg0   uint64
	arg1   uint64
	arg2   uint64 // request reuse of the sRet field (low 32 bits)
	rid    uint32 // trace request ID; request reuse of the sErrno field
}

func (p page) writeRequest(slot int, r request) {
	base := slotOff(slot)
	p.writeU32(base+sOp, uint32(r.op)|uint32(r.flags)<<8|uint32(r.fileID)<<16)
	p.writeU32(base+sRef, r.ref)
	p.writeU32(base+sSeq, r.seq)
	p.writeU64(base+sArg0, r.arg0)
	p.writeU64(base+sArg1, r.arg1)
	p.writeU32(base+sRet, uint32(r.arg2))
	// The errno word carries the trace request ID frontend -> backend; the
	// response overwrites it. The ring page is exactly full (96-byte header
	// + 100×40-byte slots), so tracing reuses dead request-direction bytes
	// rather than growing the slot.
	p.writeU32(base+sErrno, r.rid)
	p.writeU32(base+sState, slotPosted)
}

func (p page) readRequest(slot int) request {
	v, base := p.view(), slotOff(slot)
	opFile := v.u32(base + sOp)
	return request{
		slot:   slot,
		op:     uint8(opFile),
		flags:  uint8(opFile >> 8),
		fileID: uint16(opFile >> 16),
		ref:    v.u32(base + sRef),
		seq:    v.u32(base + sSeq),
		arg0:   v.u64(base + sArg0),
		arg1:   v.u64(base + sArg1),
		arg2:   uint64(v.u32(base + sRet)),
		rid:    v.u32(base + sErrno),
	}
}

func (p page) writeResponse(slot int, ret int32, errno int32) {
	base := slotOff(slot)
	p.writeU32(base+sRet, uint32(ret))
	p.writeU32(base+sErrno, uint32(errno))
	p.writeU32(base+sState, slotDone)
	// Publish a completion descriptor so the frontend's scan is O(batch):
	// set the slot's done bit. The bitmap is advisory — the scan re-validates
	// against slot state — so a hostile peer clearing it degrades to a
	// deadline, never to corruption.
	p.setDoneBit(slot)
}

// postedRID reads the trace request ID a posted slot carries (the sErrno
// word until the response overwrites it). The word is shared with the
// driver VM, which can rewrite it; the ID only labels trace spans.
func (p page) postedRID(slot int) uint32 { return p.readU32(slotOff(slot) + sErrno) }

func (p page) readResponse(slot int) (ret int32, errno int32) {
	v, base := p.view(), slotOff(slot)
	return int32(v.u32(base + sRet)), int32(v.u32(base + sErrno))
}

// recycleSlot returns a slot to the free pool, scrubbing the response words
// first. The sErrno word carries the trace request ID in the request
// direction, so a slot freed WITHOUT a response having overwritten it (an
// abandoned request reclaimed after a timeout or a reconnect) would
// otherwise leave a stale RID where the next reader expects an errno. Every
// path that frees a slot without reading a response must come through here.
func (p page) recycleSlot(slot int) {
	base := slotOff(slot)
	p.writeU32(base+sRet, 0)
	p.writeU32(base+sErrno, 0)
	p.writeU32(base+sState, slotFree)
}

func (p page) slotState(slot int) uint32 { return p.view().slotState(slot) }
func (p page) setSlotState(slot int, st uint32) {
	p.writeU32(slotOff(slot)+sState, st)
}

// setDoneBit ORs slot's bit into the completion bitmap (hdrDoneBits).
// Out-of-range slots are ignored — the bitmap is advisory and must never
// become a way to write outside its words.
func (p page) setDoneBit(slot int) {
	if slot < 0 || slot >= bitmapWords*32 {
		return
	}
	off := hdrDoneBits + 4*(slot/32)
	p.writeU32(off, p.readU32(off)|1<<uint(slot%32))
}

// takeDoneBits reads and clears the completion bitmap. The caller validates
// each set bit against the actual slot state before acting on it: the words
// cross the VM boundary and are untrusted.
func (p page) takeDoneBits() [bitmapWords]uint32 {
	var bits [bitmapWords]uint32
	for w := 0; w < bitmapWords; w++ {
		off := hdrDoneBits + 4*w
		bits[w] = p.readU32(off)
		if bits[w] != 0 {
			p.writeU32(off, 0)
		}
	}
	return bits
}

// postNotif ORs bits into the pending-notification field.
func (p page) postNotif(bits uint32) {
	p.writeU32(hdrNotifBits, p.readU32(hdrNotifBits)|bits)
}

// takeNotifs reads and clears the pending-notification bits.
func (p page) takeNotifs() uint32 {
	bits := p.readU32(hdrNotifBits)
	if bits != 0 {
		p.writeU32(hdrNotifBits, 0)
	}
	return bits
}
