package mem

import (
	"fmt"
	"slices"
)

// EPT is an extended page table: the hypervisor-maintained second-level
// translation from guest-physical to system-physical addresses, with
// per-page read/write permissions. One EPT exists per VM.
//
// Device data isolation (§4.2) works by removing permissions here: the
// driver VM's EPT entries for protected memory regions lose PermRead (and,
// because x86 has no write-only mappings, PermWrite too).
//
// The table is held as runs: a VM's RAM or a device BAR is one entry however
// many pages it spans, and every lookup is a binary search. Behaviour is
// still per page — Unmap and SetPerm split a run around the page they touch,
// and neighbours contiguous in both address spaces with equal permissions
// merge back into one run.
type EPT struct {
	runs  []eptRun // sorted by gfn, non-overlapping, none empty
	pages int      // mapped pages, the sum of runs[i].n
	gen   uint64   // bumped by every mutating call; see Generation

	// OnChange, when set, is invoked once after every successful mutating
	// call — MapRange, Map, Unmap, SetPerm. The hypervisor's software TLB
	// subscribes here: any change to the guest-physical→system-physical
	// layer flushes that VM's cached translations wholesale, so a page whose
	// EPT entry was removed or permission-stripped can never be served out
	// of the cache. nil (the default) costs nothing.
	OnChange func()
}

// eptRun maps n consecutive guest frames starting at gfn onto n consecutive
// system frames starting at spa, all with permission perm.
type eptRun struct {
	gfn  uint64
	n    uint64
	spa  SysPhys
	perm Perm
}

// joins reports whether b continues a in both address spaces with the same
// permission, so the two can be one run.
func (a eptRun) joins(b eptRun) bool {
	return a.gfn+a.n == b.gfn && a.spa+SysPhys(a.n<<PageShift) == b.spa && a.perm == b.perm
}

// NewEPT returns an empty EPT.
func NewEPT() *EPT { return &EPT{} }

// find returns the index of the first run ending after frame f, and whether
// that run contains f.
func (e *EPT) find(f uint64) (int, bool) {
	lo, hi := 0, len(e.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := &e.runs[m]; r.gfn+r.n <= f {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(e.runs) && e.runs[lo].gfn <= f
}

func (e *EPT) changed() {
	e.gen++
	if e.OnChange != nil {
		e.OnChange()
	}
}

// MapRange installs translations for n consecutive pages, gpa -> spa. Both
// addresses must be page-aligned and every slot in the range empty.
func (e *EPT) MapRange(gpa GuestPhys, spa SysPhys, n int, perm Perm) error {
	if !PageAligned(uint64(gpa)) || !PageAligned(uint64(spa)) {
		return fmt.Errorf("ept: unaligned map %v -> %v", gpa, spa)
	}
	if n <= 0 {
		return fmt.Errorf("ept: MapRange of %d pages at %v", n, gpa)
	}
	f := Frame(uint64(gpa))
	i, _ := e.find(f)
	if i < len(e.runs) && e.runs[i].gfn < f+uint64(n) {
		return fmt.Errorf("ept: %v already mapped", GuestPhys(max(f, e.runs[i].gfn)<<PageShift))
	}
	e.runs = slices.Insert(e.runs, i, eptRun{gfn: f, n: uint64(n), spa: spa, perm: perm})
	e.pages += n
	e.merge(i)
	e.changed()
	return nil
}

// Map installs a translation for the page at gpa.
func (e *EPT) Map(gpa GuestPhys, spa SysPhys, perm Perm) error {
	return e.MapRange(gpa, spa, 1, perm)
}

// isolate splits run i, which contains frame f, so that f is a run of its
// own, and returns that run's index.
func (e *EPT) isolate(i int, f uint64) int {
	r := e.runs[i]
	if off := f - r.gfn; off > 0 {
		left := r
		left.n = off
		r.gfn, r.n, r.spa = f, r.n-off, r.spa+SysPhys(off<<PageShift)
		e.runs[i] = r
		e.runs = slices.Insert(e.runs, i, left)
		i++
	}
	if r.n > 1 {
		right := eptRun{gfn: f + 1, n: r.n - 1, spa: r.spa + PageSize, perm: r.perm}
		e.runs[i].n = 1
		e.runs = slices.Insert(e.runs, i+1, right)
	}
	return i
}

// merge joins run i with whichever neighbours continue it.
func (e *EPT) merge(i int) {
	if i+1 < len(e.runs) && e.runs[i].joins(e.runs[i+1]) {
		e.runs[i].n += e.runs[i+1].n
		e.runs = slices.Delete(e.runs, i+1, i+2)
	}
	if i > 0 && e.runs[i-1].joins(e.runs[i]) {
		e.runs[i-1].n += e.runs[i].n
		e.runs = slices.Delete(e.runs, i, i+1)
	}
}

// Unmap removes the translation for the page at gpa.
func (e *EPT) Unmap(gpa GuestPhys) error {
	f := Frame(uint64(gpa))
	i, ok := e.find(f)
	if !ok {
		return fmt.Errorf("ept: unmap of unmapped %v", gpa)
	}
	i = e.isolate(i, f)
	e.runs = slices.Delete(e.runs, i, i+1)
	e.pages--
	e.changed()
	return nil
}

// SetPerm changes the permissions of an existing mapping.
func (e *EPT) SetPerm(gpa GuestPhys, perm Perm) error {
	f := Frame(uint64(gpa))
	i, ok := e.find(f)
	if !ok {
		return fmt.Errorf("ept: SetPerm of unmapped %v", gpa)
	}
	if e.runs[i].perm != perm {
		i = e.isolate(i, f)
		e.runs[i].perm = perm
		e.merge(i)
	}
	e.changed()
	return nil
}

// Lookup returns the mapping for the page containing gpa, if present.
func (e *EPT) Lookup(gpa GuestPhys) (spa SysPhys, perm Perm, ok bool) {
	f := Frame(uint64(gpa))
	i, ok := e.find(f)
	if !ok {
		return 0, 0, false
	}
	r := &e.runs[i]
	return r.spa + SysPhys((f-r.gfn)<<PageShift), r.perm, true
}

// Mapped reports whether the page containing gpa has a translation.
func (e *EPT) Mapped(gpa GuestPhys) bool {
	_, ok := e.find(Frame(uint64(gpa)))
	return ok
}

// Translate converts gpa to a system physical address, checking that the
// mapping allows the requested access. The page offset is preserved.
func (e *EPT) Translate(gpa GuestPhys, access Perm) (SysPhys, error) {
	f := Frame(uint64(gpa))
	i, ok := e.find(f)
	if !ok {
		return 0, &EPTViolation{GPA: gpa, Access: access}
	}
	r := &e.runs[i]
	if !r.perm.Allows(access) {
		return 0, &EPTViolation{GPA: gpa, Access: access, Allowed: r.perm, Mapped: true}
	}
	return r.spa + SysPhys((f-r.gfn)<<PageShift+PageOffset(uint64(gpa))), nil
}

// FindUnusedRange returns the guest-physical address of the lowest n
// consecutive unmapped pages within [lo, hi). This is how the hypervisor
// picks guest physical page addresses for cross-VM mmap (§5.2: "the
// hypervisor finds unused page addresses in the guest and uses them for this
// purpose").
func (e *EPT) FindUnusedRange(lo, hi GuestPhys, n int) (GuestPhys, error) {
	if n <= 0 {
		return 0, fmt.Errorf("ept: FindUnusedRange(%d)", n)
	}
	start, end := Frame(uint64(lo)), Frame(uint64(hi))
	i, _ := e.find(start)
	for ; i < len(e.runs) && e.runs[i].gfn < end; i++ {
		r := e.runs[i]
		if r.gfn >= start+uint64(n) {
			break
		}
		start = r.gfn + r.n
	}
	if start < end && end-start >= uint64(n) {
		return GuestPhys(start << PageShift), nil
	}
	return 0, fmt.Errorf("ept: no %d-page gap in [%v, %v)", n, lo, hi)
}

// Generation returns a counter that every successful mutating call —
// MapRange, Map, Unmap, SetPerm — advances. While it reads the same, every
// translation and permission reads the same, so a caller may keep a resolved
// translation and revalidate it with one comparison instead of a lookup.
func (e *EPT) Generation() uint64 { return e.gen }

// Count returns the number of mapped pages (diagnostics).
func (e *EPT) Count() int { return e.pages }
