package mem

import (
	"fmt"
	"slices"
)

// PhysMem is the machine's system physical memory: a sparse collection of
// 4 KiB frames. A page an Allocator has handed out is backed by a zeroed
// frame on first touch, so an allocation costs host memory only for the
// pages actually used; a device exposes its memory at a physical range (a
// BAR) by populating it. Touching an unbacked address is a BusError.
//
// Frames are indexed by range: each registered range holds a two-level
// table of frame pointers, filled lazily, and a lookup indexes it after
// finding the range — first the range the previous lookup hit, then a binary
// search. A backed frame never moves.
type PhysMem struct {
	ranges []*frameRange // sorted by base, non-overlapping
	last   *frameRange   // the range the previous lookup hit, or nil
}

// PhysRange is a named carve-out of the physical address space, used for
// diagnostics and for the Table 2-style memory map dump.
type PhysRange struct {
	Name string
	Base SysPhys
	Size uint64
}

// Frame tables are two-level: a range's leaves each cover leafFrames frames,
// and a leaf is allocated when the first frame under it is backed.
const (
	leafShift  = 9
	leafFrames = 1 << leafShift
)

// frameRange is a registered range and the frames backing it.
type frameRange struct {
	PhysRange
	first  uint64 // frame number of Base
	n      uint64 // frames in the range
	handed uint64 // frames [0, handed) are an allocator's handed-out prefix
	leaves []*[leafFrames]*[PageSize]byte
}

// frame returns the backing frame for the range's i-th frame. The first
// touch of a handed-out frame backs it with zeros; any other unbacked frame
// returns nil unless populate is set.
func (r *frameRange) frame(i uint64, populate bool) *[PageSize]byte {
	back := populate || i < r.handed
	leaf := r.leaves[i>>leafShift]
	if leaf == nil {
		if !back {
			return nil
		}
		leaf = new([leafFrames]*[PageSize]byte)
		r.leaves[i>>leafShift] = leaf
	}
	fr := leaf[i&(leafFrames-1)]
	if fr == nil && back {
		fr = new([PageSize]byte)
		leaf[i&(leafFrames-1)] = fr
	}
	return fr
}

// backed returns the range's i-th frame if it is backed, or nil; unlike
// frame, it never backs one.
func (r *frameRange) backed(i uint64) *[PageSize]byte {
	if leaf := r.leaves[i>>leafShift]; leaf != nil {
		return leaf[i&(leafFrames-1)]
	}
	return nil
}

// NewPhysMem returns empty physical memory.
func NewPhysMem() *PhysMem { return &PhysMem{} }

// AddRange registers a named physical range. Ranges must not overlap.
func (m *PhysMem) AddRange(name string, base SysPhys, size uint64) PhysRange {
	return m.addRange(name, base, size).PhysRange
}

func (m *PhysMem) addRange(name string, base SysPhys, size uint64) *frameRange {
	if !PageAligned(uint64(base)) || !PageAligned(size) {
		panic(fmt.Sprintf("mem: range %s not page aligned (%v + %#x)", name, base, size))
	}
	first, n := Frame(uint64(base)), size>>PageShift
	i := m.search(first)
	if i < len(m.ranges) && m.ranges[i].first < first+n {
		panic(fmt.Sprintf("mem: range %s overlaps %s", name, m.ranges[i].Name))
	}
	r := &frameRange{
		PhysRange: PhysRange{Name: name, Base: base, Size: size},
		first:     first,
		n:         n,
		leaves:    make([]*[leafFrames]*[PageSize]byte, (n+leafFrames-1)>>leafShift),
	}
	m.ranges = slices.Insert(m.ranges, i, r)
	return r
}

// search returns the index of the first range ending after frame f.
func (m *PhysMem) search(f uint64) int {
	lo, hi := 0, len(m.ranges)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if r := m.ranges[h]; r.first+r.n <= f {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// Ranges returns the registered ranges sorted by base address.
func (m *PhysMem) Ranges() []PhysRange {
	out := make([]PhysRange, len(m.ranges))
	for i, r := range m.ranges {
		out[i] = r.PhysRange
	}
	return out
}

// lookup returns the range containing frame f, or nil.
func (m *PhysMem) lookup(f uint64) *frameRange {
	if r := m.last; r != nil && f-r.first < r.n {
		return r
	}
	i := m.search(f)
	if i == len(m.ranges) || m.ranges[i].first > f {
		return nil
	}
	m.last = m.ranges[i]
	return m.last
}

// Populate backs the page containing pa with a zeroed frame. Populating an
// already-backed page is a no-op. A page outside every registered range
// becomes a one-page range of its own, named "populated".
func (m *PhysMem) Populate(pa SysPhys) {
	f := Frame(uint64(pa))
	r := m.lookup(f)
	if r == nil {
		r = m.addRange("populated", SysPhys(f<<PageShift), PageSize)
	}
	r.frame(f-r.first, true)
}

// FrameBytes returns the backing frame for the page containing pa, or nil.
func (m *PhysMem) FrameBytes(pa SysPhys) *[PageSize]byte {
	f := Frame(uint64(pa))
	r := m.lookup(f)
	if r == nil {
		return nil
	}
	return r.frame(f-r.first, false)
}

// Read copies len(buf) bytes starting at pa into buf, crossing page
// boundaries as needed.
func (m *PhysMem) Read(pa SysPhys, buf []byte) error {
	_, err := m.CopyPages(uint64(pa), buf, false, nil)
	return err
}

// Write copies data into physical memory starting at pa.
func (m *PhysMem) Write(pa SysPhys, data []byte) error {
	_, err := m.CopyPages(uint64(pa), data, true, nil)
	return err
}

// CopyPages moves buf into (write) or out of memory starting at addr, one
// page at a time: it resolves each page's first address through at, then
// moves the bytes up to the page boundary. A nil at means addr is already
// system-physical. Every address space reaches physical memory through this
// loop — a guest-physical, guest-virtual or bus address differs only in its
// at. It returns the bytes moved before the first error, so a fault on page
// k leaves exactly pages 0..k-1 moved; at's error is returned as is, and a
// page with no frame behind it is a BusError.
func (m *PhysMem) CopyPages(addr uint64, buf []byte, write bool, at func(uint64) (SysPhys, error)) (int, error) {
	done := 0
	for done < len(buf) {
		spa := SysPhys(addr)
		if at != nil {
			var err error
			if spa, err = at(addr); err != nil {
				return done, err
			}
		}
		frame := m.FrameBytes(spa)
		if frame == nil {
			return done, &BusError{Addr: spa, Op: accessOp(write)}
		}
		off := PageOffset(uint64(spa))
		n := min(PageSize-PageOffset(addr), uint64(len(buf)-done))
		if write {
			copy(frame[off:off+n], buf[done:])
		} else {
			copy(buf[done:done+int(n)], frame[off:])
		}
		addr += n
		done += int(n)
	}
	return done, nil
}

// accessOp names an access for a BusError.
func accessOp(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Zero clears n bytes starting at pa, in place: a backed frame is cleared,
// and an unbacked frame of an allocator's handed-out prefix is left unbacked,
// since it already reads as zero. It is the one zeroing path: the hypervisor
// recycling protected-region pages (§5.3: "the hypervisor zeros out the pages
// before unmapping") and GuestSpace.ZeroPage both use it. Any other unbacked
// page is a BusError, reported after the pages before it were cleared, as
// Write would.
func (m *PhysMem) Zero(pa SysPhys, n uint64) error {
	for addr, end := uint64(pa), uint64(pa)+n; addr < end; {
		f := Frame(addr)
		r := m.lookup(f)
		var fr *[PageSize]byte
		if r != nil {
			fr = r.backed(f - r.first)
		}
		if fr == nil && (r == nil || f-r.first >= r.handed) {
			return &BusError{Addr: SysPhys(addr), Op: "write"}
		}
		off := PageOffset(addr)
		k := min(PageSize-off, end-addr)
		if fr != nil {
			clear(fr[off : off+k])
		}
		addr += k
	}
	return nil
}

// Allocator hands out frames from a physical range, bump-style.
type Allocator struct {
	r *frameRange
}

// NewAllocator carves a named range out of physical memory and returns an
// allocator over it.
func (m *PhysMem) NewAllocator(name string, base SysPhys, size uint64) *Allocator {
	return &Allocator{r: m.addRange(name, base, size)}
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
	if uint64(n) > a.r.n-a.r.handed {
		return 0, fmt.Errorf("mem: range %s exhausted", a.r.Name)
	}
	base := a.r.Base + SysPhys(a.r.handed<<PageShift)
	a.r.handed += uint64(n)
	return base, nil
}
