package mem

import "encoding/binary"

// GuestSpace is a VM's view of its guest-physical address space: every
// access translates through the VM's EPT (enforcing EPT permissions) and
// lands in system physical memory.
//
// All simulated CPU work inside a VM — kernel code, drivers, applications —
// touches memory through a GuestSpace. That single choke point is what makes
// the isolation arguments of §4 testable: if the driver VM's EPT forbids
// reading a protected region, no code path in the driver VM can read it.
type GuestSpace struct {
	Phys *PhysMem
	EPT  *EPT

	// OnPTEdit, when set, is invoked after every successful leaf mutation of
	// a PageTable whose frames live in this space — SetLeaf and Unmap — with
	// the root of the edited table and the virtual page that changed. The
	// hypervisor's software TLB (internal/hv/tlb.go) subscribes here so a
	// remapped or unmapped page is invalidated in the same instant the PTE
	// word changes; nil (the default) costs nothing.
	OnPTEdit func(root GuestPhys, va GuestVirt)

	// walk holds, per page-table level, the table page a read of that
	// level's entries last resolved (PageTable.readEntry).
	walk [walkLevels]tableSlot
}

// walkLevels is the depth of a PageTable walk: PDPT, page directory, page
// table.
const walkLevels = 3

// tableSlot remembers one table page's frame together with the EPT and the
// generation it was resolved under. It is valid while the space holds the
// same EPT at the same generation: a backed frame never moves or unbacks,
// so an unchanged EPT means an unchanged frame and an unchanged read
// permission. It keeps the frame, never an entry, so every walk still loads
// every entry word and sees a PTE edit at once.
type tableSlot struct {
	page  GuestPhys // base of the table page
	ept   *EPT
	gen   uint64
	frame *[PageSize]byte // nil: nothing resolved
}

// resolve returns the frame of the table page holding gpa, checked for read
// access. A miss takes the full path and returns its exact error; only a
// success is remembered.
func (t *tableSlot) resolve(s *GuestSpace, gpa GuestPhys) (*[PageSize]byte, error) {
	page := GuestPhys(PageBase(uint64(gpa)))
	if t.frame != nil && t.page == page && t.ept == s.EPT && t.gen == s.EPT.Generation() {
		return t.frame, nil
	}
	fr, err := s.tableFrame(gpa, PermRead)
	if err != nil {
		return nil, err
	}
	*t = tableSlot{page: page, ept: s.EPT, gen: s.EPT.Generation(), frame: fr}
	return fr, nil
}

// tableFrame translates the table page holding gpa through the EPT with the
// given access and returns its frame, or the bus error the access raises
// when the frame is unbacked.
func (s *GuestSpace) tableFrame(gpa GuestPhys, access Perm) (*[PageSize]byte, error) {
	spa, err := s.EPT.Translate(gpa, access)
	if err != nil {
		return nil, err
	}
	fr := s.Phys.FrameBytes(spa)
	if fr == nil {
		return nil, &BusError{Addr: spa, Op: accessOp(access == PermWrite)}
	}
	return fr, nil
}

// Read copies len(buf) bytes from guest-physical gpa, page by page.
func (s *GuestSpace) Read(gpa GuestPhys, buf []byte) error {
	return s.access(gpa, buf, PermRead)
}

// Write copies data to guest-physical gpa, page by page.
func (s *GuestSpace) Write(gpa GuestPhys, data []byte) error {
	return s.access(gpa, data, PermWrite)
}

// ZeroPage clears the guest-physical page containing gpa through the EPT,
// which must allow writing it; its errors are those of a page-sized Write at
// the page's base. A frame that was never backed stays unbacked: it cannot
// hold any bytes, so clearing it would only spend host memory on zeros
// (PhysMem.Zero).
func (s *GuestSpace) ZeroPage(gpa GuestPhys) error {
	spa, err := s.EPT.Translate(GuestPhys(PageBase(uint64(gpa))), PermWrite)
	if err != nil {
		return err
	}
	return s.Phys.Zero(spa, PageSize)
}

func (s *GuestSpace) access(gpa GuestPhys, buf []byte, perm Perm) error {
	_, err := s.Phys.CopyPages(uint64(gpa), buf, perm == PermWrite, func(addr uint64) (SysPhys, error) {
		return s.EPT.Translate(GuestPhys(addr), perm)
	})
	return err
}

// ReadU64 reads a little-endian 64-bit word at gpa.
func (s *GuestSpace) ReadU64(gpa GuestPhys) (uint64, error) {
	var b [8]byte
	if err := s.Read(gpa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word at gpa.
func (s *GuestSpace) WriteU64(gpa GuestPhys, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(gpa, b[:])
}
