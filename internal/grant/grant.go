// Package grant implements Paradice's grant table (§4.1, §5.1): a single
// memory page shared between a guest VM's CVD frontend and the hypervisor.
// Before forwarding a file operation, the frontend declares the operation's
// legitimate memory operations as entries in this page; the backend attaches
// the entry's reference number to every hypervisor memory-operation request,
// and the hypervisor validates each request against the declared entries.
//
// The table is a real byte-encoded page — both sides parse the same bytes,
// the frontend through its guest address space and the hypervisor through
// the page's system-physical address — so nothing about the validation can
// accidentally rely on Go state smuggled across the VM boundary.
package grant

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"paradice/internal/mem"
)

// Kind classifies a declared memory operation.
type Kind uint8

// Memory operation kinds.
const (
	KindInvalid  Kind = iota
	KindCopyTo        // driver copies data TO guest process memory
	KindCopyFrom      // driver copies data FROM guest process memory
	KindMapPage       // driver maps pages INTO the guest process address space
	KindUnmap         // driver unmaps pages from the guest process address space
)

func (k Kind) String() string {
	switch k {
	case KindCopyTo:
		return "copy-to-user"
	case KindCopyFrom:
		return "copy-from-user"
	case KindMapPage:
		return "map-page"
	case KindUnmap:
		return "unmap-page"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one legitimate memory operation: the driver may perform accesses of
// the given kind anywhere within [VA, VA+Len).
type Op struct {
	Kind Kind
	VA   mem.GuestVirt
	Len  uint64
}

// Covers is the hypervisor's covering rule (§4.1): o permits a kind access
// to [va, va+n) when the kinds match, or o maps pages and the access
// unmaps them (tearing down a granted mapping is always legitimate), and
// the range lies inside o's without wrapping.
func (o Op) Covers(kind Kind, va mem.GuestVirt, n uint64) bool {
	if o.Kind != kind && !(kind == KindUnmap && o.Kind == KindMapPage) {
		return false
	}
	end := uint64(va) + n
	return va >= o.VA && end >= uint64(va) && end <= uint64(o.VA)+o.Len
}

// Page layout: 128 slots of 32 bytes each.
const (
	slotSize  = 32
	slotCount = mem.PageSize / slotSize

	offRef    = 0  // u32; 0 means free
	offKind   = 4  // u8
	offVA     = 8  // u64
	offLen    = 16 // u64
	offPTRoot = 24 // u64 (guest page-table root of the issuing process)
)

// Slots is the number of grant entries one table page holds.
const Slots = slotCount

// Accessor is how one side of the boundary reads and writes the shared page.
// Each implementation keeps the page's resolution between calls and checks
// it on every call — the guest-physical one against its EPT's generation —
// so an Unmap or SetPerm takes effect on the very next access, exactly as a
// fresh translation would.
type Accessor interface {
	// Page returns the whole page for reading, checked and translated once,
	// so a scan of its fields costs one translation rather than one per
	// field. The view aliases the live frame: writes made through WriteAt
	// show in it at once. Hold it only within one scan — never across a
	// Sleep, perf.Spend or Wait, where the peer may rewrite the page or the
	// hypervisor may revoke the mapping — and never write through it.
	Page() (*[mem.PageSize]byte, error)
	WriteAt(off int, b []byte) error
}

// GuestAccessor accesses the page through a guest-physical address — the
// frontend's view. GPA is the page's base.
//
// It remembers the last successful resolution of GPA — the frame and the EPT
// permission — together with the EPT and its generation at the time. A call
// serves from that while Space.EPT is the same table at the same generation:
// a backed frame never moves or unbacks, so an unchanged EPT means an
// unchanged translation. Any other call takes the full path and returns its
// exact error.
type GuestAccessor struct {
	Space *mem.GuestSpace
	GPA   mem.GuestPhys

	ept   *mem.EPT
	gen   uint64
	frame *[mem.PageSize]byte // nil: nothing resolved
	perm  mem.Perm
}

// cached returns the remembered frame if it is still current and its
// mapping allows access, else nil.
func (a *GuestAccessor) cached(access mem.Perm) *[mem.PageSize]byte {
	if a.frame == nil || a.ept != a.Space.EPT || a.gen != a.ept.Generation() || !a.perm.Allows(access) {
		return nil
	}
	return a.frame
}

// remember records GPA's current resolution. Call it only after an access
// to GPA's page succeeded, so the page is mapped and its frame backed.
func (a *GuestAccessor) remember() {
	ept := a.Space.EPT
	spa, perm, _ := ept.Lookup(a.GPA)
	a.ept, a.gen, a.frame, a.perm = ept, ept.Generation(), a.Space.Phys.FrameBytes(spa), perm
}

// Page implements Accessor: the EPT must grant the VM read access, and the
// frame must be backed, exactly as for a read through Space.
func (a *GuestAccessor) Page() (*[mem.PageSize]byte, error) {
	if f := a.cached(mem.PermRead); f != nil {
		return f, nil
	}
	spa, err := a.Space.EPT.Translate(a.GPA, mem.PermRead)
	if err != nil {
		return nil, err
	}
	f, err := frame(a.Space.Phys, spa)
	if err == nil {
		a.remember()
	}
	return f, err
}

// WriteAt implements Accessor: a write within the page needs the EPT to
// grant write access; one that runs past the page goes through Space.
func (a *GuestAccessor) WriteAt(off int, b []byte) error {
	o := int(mem.PageOffset(uint64(a.GPA))) + off
	inPage := off >= 0 && o+len(b) <= mem.PageSize
	if f := a.cached(mem.PermWrite); f != nil && inPage {
		copy(f[o:], b)
		return nil
	}
	if err := a.Space.Write(a.GPA+mem.GuestPhys(off), b); err != nil {
		return err
	}
	if inPage && len(b) > 0 {
		a.remember()
	}
	return nil
}

// WritePage is Page's write twin: it returns the whole page for writing,
// checked and translated once, with the errors a WriteAt at offset 0
// returns — the EPT must grant the VM write access and the frame must be
// backed. Hold the window only within one record's stores, never across a
// Sleep, perf.Spend or Wait, and never read through it: reads go through
// Page, which checks read access.
func (a *GuestAccessor) WritePage() (*[mem.PageSize]byte, error) {
	if f := a.cached(mem.PermWrite); f != nil {
		return f, nil
	}
	spa, err := a.Space.EPT.Translate(a.GPA, mem.PermWrite)
	if err != nil {
		return nil, err
	}
	f := a.Space.Phys.FrameBytes(spa)
	if f == nil {
		return nil, &mem.BusError{Addr: spa, Op: "write"}
	}
	a.remember()
	return f, nil
}

// PhysAccessor accesses the page through its system-physical address — the
// hypervisor's view. SPA is the page's base. Once the frame is backed it is
// kept: a backed frame never moves or unbacks.
type PhysAccessor struct {
	Phys *mem.PhysMem
	SPA  mem.SysPhys

	frame *[mem.PageSize]byte // nil until the frame is first found backed
}

// Page implements Accessor.
func (a *PhysAccessor) Page() (*[mem.PageSize]byte, error) {
	if a.frame != nil {
		return a.frame, nil
	}
	f, err := frame(a.Phys, a.SPA)
	a.frame = f
	return f, err
}

// WriteAt implements Accessor.
func (a *PhysAccessor) WriteAt(off int, b []byte) error {
	return a.Phys.Write(a.SPA+mem.SysPhys(off), b)
}

// frame returns the frame backing spa, or the bus error a read of it raises.
func frame(phys *mem.PhysMem, spa mem.SysPhys) (*[mem.PageSize]byte, error) {
	f := phys.FrameBytes(spa)
	if f == nil {
		return nil, &mem.BusError{Addr: spa, Op: "read"}
	}
	return f, nil
}

// slotRef returns the reference number of slot in pg.
func slotRef(pg *[mem.PageSize]byte, slot int) uint32 {
	return binary.LittleEndian.Uint32(pg[slot*slotSize+offRef:])
}

// Table is the frontend's handle for declaring and revoking grants.
type Table struct {
	acc     Accessor
	nextRef uint32
	// used is the page's occupancy bitmap: bit s is set when slot s holds a
	// nonzero reference (slotCount is a multiple of 64). A declaration finds
	// free slots, and a revocation its own, without scanning all of them. It
	// is read from the page on first use (loaded); from then on Declare and
	// revoke, the page's only writers, keep it current. The hypervisor never
	// sees it: Validate and FindRef scan the page's bytes.
	used   [slotCount / 64]uint64
	loaded bool
	// slot is where writeSlot encodes an entry. A buffer on the stack would
	// escape through the Accessor interface and cost an allocation per entry.
	slot [slotSize]byte
	// onRevoke subscribers run after a reference's slots are zeroed. The
	// grant-map cache registers here: a mapping established under a revoked
	// reference must be torn down deterministically, in the same instant the
	// declaration disappears from the shared page, so a driver VM holding a
	// stale mapping faults instead of silently reading freed guest memory.
	onRevoke []func(ref uint32)
	// onDeclare subscribers run after a declaration's slots are all written —
	// never on the rolled-back table-full path, whose partial slots are gone
	// by the time Declare returns. The hypervisor's grant-validation cache
	// (armed with Config.TLB) primes itself here, modeling the batched
	// hypercall that hands the hypervisor the whole entry vector in one
	// crossing.
	onDeclare []func(ref uint32, ptRoot mem.GuestPhys, ops []Op)
	// declared is the copy of a declaration's ops the onDeclare subscribers
	// see. Handing them the caller's slice would make every caller's ops
	// escape, and the frontend collects them in an array on its stack.
	declared []Op
}

// NewTable wraps a zeroed shared page.
func NewTable(acc Accessor) *Table {
	return &Table{acc: acc, nextRef: 1}
}

// Declare writes the operations into free slots under a fresh reference
// number and returns the reference. ptRoot is the page-table root of the
// process issuing the file operation; the hypervisor walks that table when
// executing the operations.
func (t *Table) Declare(ptRoot mem.GuestPhys, ops []Op) (uint32, error) {
	if len(ops) == 0 {
		return 0, fmt.Errorf("grant: empty declaration")
	}
	ref := t.nextRef
	t.nextRef++
	if t.nextRef == 0 { // refs must stay nonzero
		t.nextRef = 1
	}
	if _, err := t.page(); err != nil {
		return 0, err
	}
	written := 0
	for w := 0; w < len(t.used) && written < len(ops); w++ {
		for free := ^t.used[w]; free != 0 && written < len(ops); free &= free - 1 {
			slot := w*64 + bits.TrailingZeros64(free)
			if err := t.writeSlot(slot, ref, ptRoot, ops[written]); err != nil {
				return 0, err
			}
			t.used[w] |= 1 << (slot % 64)
			written++
		}
	}
	if written < len(ops) {
		// Roll back what we wrote: the table page is full.
		_ = t.revoke(ref)
		return 0, fmt.Errorf("grant: table full (%d slots)", slotCount)
	}
	if len(t.onDeclare) > 0 {
		t.declared = append(t.declared[:0], ops...)
		for _, fn := range t.onDeclare {
			fn(ref, ptRoot, t.declared)
		}
	}
	return ref, nil
}

// Revoke frees every slot declared under ref and notifies OnRevoke
// subscribers so cached state keyed on the reference (grant-map cache
// entries) is invalidated in the same instant.
func (t *Table) Revoke(ref uint32) error {
	if err := t.revoke(ref); err != nil {
		return err
	}
	if ref != 0 {
		for _, fn := range t.onRevoke {
			fn(ref)
		}
	}
	return nil
}

// OnRevoke registers fn to run after every successful Revoke, with the
// revoked reference. Registration order is invocation order (determinism).
func (t *Table) OnRevoke(fn func(ref uint32)) {
	t.onRevoke = append(t.onRevoke, fn)
}

// OnDeclare registers fn to run after every fully successful Declare, with
// the fresh reference, the issuing process's page-table root, and the
// declared operation vector. Registration order is invocation order. The
// callback must not retain ops past its return without copying.
func (t *Table) OnDeclare(fn func(ref uint32, ptRoot mem.GuestPhys, ops []Op)) {
	t.onDeclare = append(t.onDeclare, fn)
}

func (t *Table) writeSlot(slot int, ref uint32, ptRoot mem.GuestPhys, op Op) error {
	buf := &t.slot
	*buf = [slotSize]byte{}
	binary.LittleEndian.PutUint32(buf[offRef:], ref)
	buf[offKind] = uint8(op.Kind)
	binary.LittleEndian.PutUint64(buf[offVA:], uint64(op.VA))
	binary.LittleEndian.PutUint64(buf[offLen:], op.Len)
	binary.LittleEndian.PutUint64(buf[offPTRoot:], uint64(ptRoot))
	return t.acc.WriteAt(slot*slotSize, buf[:])
}

// zeroSlot is what revoke writes over a freed slot. Package-level so the
// write does not allocate.
var zeroSlot [slotSize]byte

// page returns the table page, loading the occupancy bitmap from it on the
// first successful access.
func (t *Table) page() (*[mem.PageSize]byte, error) {
	pg, err := t.acc.Page()
	if err != nil || t.loaded {
		return pg, err
	}
	for slot := 0; slot < slotCount; slot++ {
		if slotRef(pg, slot) != 0 {
			t.used[slot/64] |= 1 << (slot % 64)
		}
	}
	t.loaded = true
	return pg, nil
}

// revoke zeroes every slot whose reference is ref. A nonzero ref visits only
// the occupied slots; ref 0 names the free ones, which it zeroes whole.
func (t *Table) revoke(ref uint32) error {
	pg, err := t.page()
	if err != nil {
		return err
	}
	for w := range t.used {
		set := t.used[w]
		if ref == 0 {
			set = ^set
		}
		for ; set != 0; set &= set - 1 {
			slot := w*64 + bits.TrailingZeros64(set)
			if slotRef(pg, slot) != ref {
				continue
			}
			if err := t.acc.WriteAt(slot*slotSize, zeroSlot[:]); err != nil {
				return err
			}
			t.used[w] &^= 1 << (slot % 64)
		}
	}
	return nil
}

// FindRef scans the page for any slot declared under ref and returns its
// page-table root. It performs NO kind or range checking — it exists for
// diagnostics and for the fault-injection harness's deliberately weakened
// grant check ("grant.validate.skip"), never as a validation path.
func FindRef(acc Accessor, ref uint32) (mem.GuestPhys, bool, error) {
	if ref == 0 {
		return 0, false, nil
	}
	pg, err := acc.Page()
	if err != nil {
		return 0, false, err
	}
	for slot := 0; slot < slotCount; slot++ {
		if slotRef(pg, slot) == ref {
			return mem.GuestPhys(binary.LittleEndian.Uint64(pg[slot*slotSize+offPTRoot:])), true, nil
		}
	}
	return 0, false, nil
}

// DeniedError reports a memory operation the grant table does not cover —
// the hypervisor's strict runtime check failing a compromised driver VM.
type DeniedError struct {
	Ref  uint32
	Kind Kind
	VA   mem.GuestVirt
	Len  uint64
}

func (e *DeniedError) Error() string {
	return fmt.Sprintf("grant: ref %d does not permit %v of %d bytes at %v",
		e.Ref, e.Kind, e.Len, e.VA)
}

// Validate is the hypervisor's check: it scans the page for an entry with
// the given reference that Covers a kind access to [va, va+n), and returns
// the page-table root declared with it.
func Validate(acc Accessor, ref uint32, kind Kind, va mem.GuestVirt, n uint64) (mem.GuestPhys, error) {
	if ref == 0 {
		return 0, &DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
	}
	pg, err := acc.Page()
	if err != nil {
		return 0, err
	}
	for slot := 0; slot < slotCount; slot++ {
		buf := pg[slot*slotSize : (slot+1)*slotSize]
		if binary.LittleEndian.Uint32(buf[offRef:]) != ref {
			continue
		}
		op := Op{
			Kind: Kind(buf[offKind]),
			VA:   mem.GuestVirt(binary.LittleEndian.Uint64(buf[offVA:])),
			Len:  binary.LittleEndian.Uint64(buf[offLen:]),
		}
		if op.Covers(kind, va, n) {
			return mem.GuestPhys(binary.LittleEndian.Uint64(buf[offPTRoot:])), nil
		}
	}
	return 0, &DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
}
