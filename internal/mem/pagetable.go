package mem

import (
	"encoding/binary"
	"fmt"
)

// PageTable is a PAE-style three-level guest page table. Its table frames
// live in guest-physical memory and its entries are little-endian 64-bit
// words inside those frames, so the structure can be walked both by the
// guest kernel that owns it and — through the guest's EPT — by the
// hypervisor performing the software walk of §5.2. Each entry access
// resolves its table page through the EPT and then loads or stores the word
// in the backing frame directly; a read keeps the frame it resolved for the
// next walk at the same level (GuestSpace.walk).
//
// Virtual address layout (32-bit PAE):
//
//	bits 31-30: PDPT index (4 entries)
//	bits 29-21: page directory index (512 entries)
//	bits 20-12: page table index (512 entries)
//	bits 11-0:  page offset
type PageTable struct {
	space *GuestSpace
	root  GuestPhys // the PDPT page
	alloc func() (GuestPhys, error)
}

// Page table entry bits.
const (
	pteBits     = 12
	ptePresent  = 1 << 0
	pteWritable = 1 << 1
	pteAddrMask = ^uint64(PageSize-1) & ((1 << 52) - 1)
)

func pdptIndex(va GuestVirt) uint64 { return (uint64(va) >> 30) & 0x3 }
func pdIndex(va GuestVirt) uint64   { return (uint64(va) >> 21) & 0x1ff }
func ptIndex(va GuestVirt) uint64   { return (uint64(va) >> 12) & 0x1ff }

// NewPageTable allocates a fresh root (PDPT) frame via alloc and returns the
// table. space is the address space the table frames live in; alloc hands
// out zeroed guest-physical frames from the owning kernel's allocator.
func NewPageTable(space *GuestSpace, alloc func() (GuestPhys, error)) (*PageTable, error) {
	root, err := alloc()
	if err != nil {
		return nil, err
	}
	return &PageTable{space: space, root: root, alloc: alloc}, nil
}

// LoadPageTable wraps an existing table rooted at root, accessed through
// space. This is what the hypervisor does: it walks a guest's table through
// the guest's EPT view without being able to allocate guest frames. The
// table is returned by value, so loading one per request allocates nothing.
func LoadPageTable(space *GuestSpace, root GuestPhys) PageTable {
	return PageTable{space: space, root: root}
}

// Root returns the guest-physical address of the PDPT page.
func (pt *PageTable) Root() GuestPhys { return pt.root }

// straddles reports whether the entry at gpa crosses a page boundary, which
// only an entry of a misaligned root can. Such an entry goes through the
// guest-physical path, which resolves each page in turn.
func straddles(gpa GuestPhys) bool { return PageOffset(uint64(gpa)) > PageSize-8 }

// readEntry loads the entry at index of the level-th table of a walk (0 the
// PDPT, 1 a page directory, 2 a page table). Its table page resolves through
// the space's slot for that level, so a walk that stays on the same table
// pages translates none of them again while the EPT is unchanged; the entry
// word itself is loaded from the frame every time.
func (pt *PageTable) readEntry(level int, table GuestPhys, index uint64) (uint64, error) {
	gpa := table + GuestPhys(index*8)
	if straddles(gpa) {
		return pt.space.ReadU64(gpa)
	}
	fr, err := pt.space.walk[level].resolve(pt.space, gpa)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(fr[PageOffset(uint64(gpa)):]), nil
}

func (pt *PageTable) writeEntry(table GuestPhys, index uint64, v uint64) error {
	gpa := table + GuestPhys(index*8)
	if straddles(gpa) {
		return pt.space.WriteU64(gpa, v)
	}
	// A store always takes the write-checked translation.
	fr, err := pt.space.tableFrame(gpa, PermWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(fr[PageOffset(uint64(gpa)):], v)
	return nil
}

// nextLevel returns the table page an entry of the level-th table points
// at, allocating and installing a fresh one if create is set and the entry
// is empty.
func (pt *PageTable) nextLevel(level int, table GuestPhys, index uint64, create bool) (GuestPhys, error) {
	ent, err := pt.readEntry(level, table, index)
	if err != nil {
		return 0, err
	}
	if ent&ptePresent != 0 {
		return GuestPhys(ent & pteAddrMask), nil
	}
	if !create {
		return 0, errNotPresent
	}
	if pt.alloc == nil {
		return 0, fmt.Errorf("mem: page table has no allocator for intermediate levels")
	}
	page, err := pt.alloc()
	if err != nil {
		return 0, err
	}
	if err := pt.writeEntry(table, index, uint64(page)|ptePresent|pteWritable); err != nil {
		return 0, err
	}
	return page, nil
}

var errNotPresent = fmt.Errorf("mem: entry not present")

// EnsureIntermediates creates the PDPT/PD/PT levels covering va but not the
// leaf entry itself. The CVD frontend uses this before forwarding mmap, so
// the hypervisor only ever has to fix the last level (§5.2).
func (pt *PageTable) EnsureIntermediates(va GuestVirt) error {
	pd, err := pt.nextLevel(0, pt.root, pdptIndex(va), true)
	if err != nil {
		return err
	}
	_, err = pt.nextLevel(1, pd, pdIndex(va), true)
	return err
}

// leafTable walks to the page-table page covering va without creating
// anything. Returns errNotPresent wrapped in a PageFault if a level is
// missing.
func (pt *PageTable) leafTable(va GuestVirt) (GuestPhys, error) {
	pd, err := pt.nextLevel(0, pt.root, pdptIndex(va), false)
	if err != nil {
		return 0, err
	}
	return pt.nextLevel(1, pd, pdIndex(va), false)
}

// Map installs a leaf translation va -> gpa with the given permissions,
// creating intermediate levels as needed. The slot must be empty.
func (pt *PageTable) Map(va GuestVirt, gpa GuestPhys, perm Perm) error {
	if !PageAligned(uint64(va)) || !PageAligned(uint64(gpa)) {
		return fmt.Errorf("mem: unaligned map %v -> %v", va, gpa)
	}
	if err := pt.EnsureIntermediates(va); err != nil {
		return err
	}
	return pt.SetLeaf(va, gpa, perm)
}

// SetLeaf installs a leaf translation, requiring intermediates to exist
// already. This is the only page-table mutation the hypervisor performs on a
// guest's behalf. The slot must be empty.
func (pt *PageTable) SetLeaf(va GuestVirt, gpa GuestPhys, perm Perm) error {
	leaf, err := pt.leafTable(va)
	if err != nil {
		if err == errNotPresent {
			return fmt.Errorf("mem: SetLeaf(%v): intermediate levels missing", va)
		}
		return err
	}
	ent, err := pt.readEntry(2, leaf, ptIndex(va))
	if err != nil {
		return err
	}
	if ent&ptePresent != 0 {
		return fmt.Errorf("mem: %v already mapped", va)
	}
	v := uint64(gpa) | ptePresent
	if perm&PermWrite != 0 {
		v |= pteWritable
	}
	if err := pt.writeEntry(leaf, ptIndex(va), v); err != nil {
		return err
	}
	if pt.space.OnPTEdit != nil {
		pt.space.OnPTEdit(pt.root, GuestVirt(PageBase(uint64(va))))
	}
	return nil
}

// Unmap clears the leaf translation for va.
func (pt *PageTable) Unmap(va GuestVirt) error {
	leaf, err := pt.leafTable(va)
	if err != nil {
		if err == errNotPresent {
			return &PageFault{VA: va}
		}
		return err
	}
	ent, err := pt.readEntry(2, leaf, ptIndex(va))
	if err != nil {
		return err
	}
	if ent&ptePresent == 0 {
		return &PageFault{VA: va}
	}
	if err := pt.writeEntry(leaf, ptIndex(va), 0); err != nil {
		return err
	}
	if pt.space.OnPTEdit != nil {
		pt.space.OnPTEdit(pt.root, GuestVirt(PageBase(uint64(va))))
	}
	return nil
}

// Walk translates va (page-aligned or not; the offset is preserved) to a
// guest-physical address, checking the requested access against the leaf
// permissions.
func (pt *PageTable) Walk(va GuestVirt, access Perm) (GuestPhys, error) {
	leaf, err := pt.leafTable(va)
	if err != nil {
		if err == errNotPresent {
			return 0, &PageFault{VA: va, Access: access}
		}
		return 0, err
	}
	ent, err := pt.readEntry(2, leaf, ptIndex(va))
	if err != nil {
		return 0, err
	}
	if ent&ptePresent == 0 {
		return 0, &PageFault{VA: va, Access: access}
	}
	if access&PermWrite != 0 && ent&pteWritable == 0 {
		return 0, &PageFault{VA: va, Access: access, Present: true}
	}
	return GuestPhys(ent&pteAddrMask) + GuestPhys(PageOffset(uint64(va))), nil
}

// Mapped reports whether va has a present leaf entry.
func (pt *PageTable) Mapped(va GuestVirt) bool {
	_, err := pt.Walk(va, 0)
	return err == nil
}
