package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PhysMem is the machine's system physical memory: a sparse collection of
// 4 KiB frames. A page an Allocator has handed out is backed by a zeroed
// frame on first touch, so an allocation costs host memory only for the
// pages actually used; a device exposes its memory at a physical range (a
// BAR) by populating it. Touching an unbacked address is a BusError.
type PhysMem struct {
	frames map[uint64]*[PageSize]byte
	allocs []*Allocator // their handed-out pages are backed on first touch
	ranges []PhysRange
}

// PhysRange is a named carve-out of the physical address space, used for
// diagnostics and for the Table 2-style memory map dump.
type PhysRange struct {
	Name string
	Base SysPhys
	Size uint64
}

// NewPhysMem returns empty physical memory.
func NewPhysMem() *PhysMem {
	return &PhysMem{frames: make(map[uint64]*[PageSize]byte)}
}

// AddRange registers a named physical range. Ranges must not overlap.
func (m *PhysMem) AddRange(name string, base SysPhys, size uint64) PhysRange {
	if !PageAligned(uint64(base)) || !PageAligned(size) {
		panic(fmt.Sprintf("mem: range %s not page aligned (%v + %#x)", name, base, size))
	}
	for _, r := range m.ranges {
		if uint64(base) < uint64(r.Base)+r.Size && uint64(r.Base) < uint64(base)+size {
			panic(fmt.Sprintf("mem: range %s overlaps %s", name, r.Name))
		}
	}
	r := PhysRange{Name: name, Base: base, Size: size}
	m.ranges = append(m.ranges, r)
	return r
}

// Ranges returns the registered ranges sorted by base address.
func (m *PhysMem) Ranges() []PhysRange {
	out := append([]PhysRange(nil), m.ranges...)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Populate backs the page containing pa with a zeroed frame. Populating an
// already-backed page is a no-op.
func (m *PhysMem) Populate(pa SysPhys) {
	f := Frame(uint64(pa))
	if m.frames[f] == nil {
		m.frames[f] = new([PageSize]byte)
	}
}

// FrameBytes returns the backing frame for the page containing pa, or nil.
func (m *PhysMem) FrameBytes(pa SysPhys) *[PageSize]byte {
	return m.frame(Frame(uint64(pa)))
}

// frame returns the backing frame for frame number f. The first touch of an
// allocated page backs it with a zeroed frame; any other unbacked frame
// returns nil.
func (m *PhysMem) frame(f uint64) *[PageSize]byte {
	if fr := m.frames[f]; fr != nil {
		return fr
	}
	for _, a := range m.allocs {
		if Frame(uint64(a.r.Base)) <= f && f < Frame(uint64(a.next)) {
			fr := new([PageSize]byte)
			m.frames[f] = fr
			return fr
		}
	}
	return nil
}

// Read copies len(buf) bytes starting at pa into buf, crossing page
// boundaries as needed.
func (m *PhysMem) Read(pa SysPhys, buf []byte) error {
	return m.access(pa, buf, false)
}

// Write copies data into physical memory starting at pa.
func (m *PhysMem) Write(pa SysPhys, data []byte) error {
	return m.access(pa, data, true)
}

func (m *PhysMem) access(pa SysPhys, buf []byte, write bool) error {
	addr := uint64(pa)
	for len(buf) > 0 {
		frame := m.frame(Frame(addr))
		if frame == nil {
			op := "read"
			if write {
				op = "write"
			}
			return &BusError{Addr: SysPhys(addr), Op: op}
		}
		off := PageOffset(addr)
		n := PageSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if write {
			copy(frame[off:off+n], buf[:n])
		} else {
			copy(buf[:n], frame[off:off+n])
		}
		addr += n
		buf = buf[n:]
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit word at pa (must not cross a page).
func (m *PhysMem) ReadU64(pa SysPhys) (uint64, error) {
	var b [8]byte
	if err := m.Read(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word at pa.
func (m *PhysMem) WriteU64(pa SysPhys, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(pa, b[:])
}

// Zero clears n bytes starting at pa. Used by the hypervisor when recycling
// protected-region pages (§5.3: "the hypervisor zeros out the pages before
// unmapping").
func (m *PhysMem) Zero(pa SysPhys, n uint64) error {
	zero := make([]byte, PageSize)
	addr := uint64(pa)
	for n > 0 {
		chunk := uint64(PageSize) - PageOffset(addr)
		if chunk > n {
			chunk = n
		}
		if err := m.Write(SysPhys(addr), zero[:chunk]); err != nil {
			return err
		}
		addr += chunk
		n -= chunk
	}
	return nil
}

// Allocator hands out frames from a physical range, bump-style.
type Allocator struct {
	mem  *PhysMem
	r    PhysRange
	next SysPhys
}

// NewAllocator carves a named range out of physical memory and returns an
// allocator over it.
func (m *PhysMem) NewAllocator(name string, base SysPhys, size uint64) *Allocator {
	r := m.AddRange(name, base, size)
	a := &Allocator{mem: m, r: r, next: base}
	m.allocs = append(m.allocs, a)
	return a
}

// AllocPage returns the physical address of a fresh zeroed page.
func (a *Allocator) AllocPage() (SysPhys, error) {
	return a.AllocPages(1)
}

// AllocPages returns the base address of n fresh contiguous zeroed pages.
// The pages are backed when first touched.
func (a *Allocator) AllocPages(n int) (SysPhys, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocPages(%d)", n)
	}
	base := a.next
	end := uint64(base) + uint64(n)*PageSize
	if end > uint64(a.r.Base)+a.r.Size {
		return 0, fmt.Errorf("mem: range %s exhausted", a.r.Name)
	}
	a.next = SysPhys(end)
	return base, nil
}
