package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// frameMapModel is the reference PhysMem keeps pace with: every backed frame
// in one map keyed by frame number, every registered range in a list
// scanned in full. Pages handed out by an allocator are backed with zeros on
// first read or write, but not by Zero; Populate backs any page, and a page
// outside every range becomes a one-page range of its own.
type frameMapModel struct {
	frames map[uint64]*[PageSize]byte
	ranges []*modelRange
}

type modelRange struct {
	first, n, handed uint64
}

func (m *frameMapModel) find(f uint64) *modelRange {
	for _, r := range m.ranges {
		if r.first <= f && f < r.first+r.n {
			return r
		}
	}
	return nil
}

// addRange registers a range, reporting false where PhysMem must panic.
func (m *frameMapModel) addRange(base SysPhys, size uint64) (*modelRange, bool) {
	first, n := Frame(uint64(base)), size>>PageShift
	for _, r := range m.ranges {
		if first < r.first+r.n && r.first < first+n {
			return nil, false
		}
	}
	r := &modelRange{first: first, n: n}
	m.ranges = append(m.ranges, r)
	return r, true
}

func (m *frameMapModel) frame(f uint64, populate bool) *[PageSize]byte {
	if fr := m.frames[f]; fr != nil {
		return fr
	}
	r := m.find(f)
	if populate && r == nil {
		r, _ = m.addRange(SysPhys(f<<PageShift), PageSize)
	}
	if r == nil || !populate && f-r.first >= r.handed {
		return nil
	}
	fr := new([PageSize]byte)
	m.frames[f] = fr
	return fr
}

func (m *frameMapModel) access(pa SysPhys, buf []byte, write bool) error {
	addr := uint64(pa)
	for len(buf) > 0 {
		fr := m.frame(Frame(addr), false)
		if fr == nil {
			return &BusError{Addr: SysPhys(addr), Op: accessOp(write)}
		}
		off := PageOffset(addr)
		n := min(PageSize-off, uint64(len(buf)))
		if write {
			copy(fr[off:off+n], buf[:n])
		} else {
			copy(buf[:n], fr[off:off+n])
		}
		addr += n
		buf = buf[n:]
	}
	return nil
}

// zero clears n bytes at pa the way PhysMem.Zero must: a backed frame is
// cleared, an unbacked handed-out frame stays unbacked, and any other page
// is a BusError once the pages before it are cleared.
func (m *frameMapModel) zero(pa SysPhys, n uint64) error {
	for addr, end := uint64(pa), uint64(pa)+n; addr < end; {
		f := Frame(addr)
		fr := m.frames[f]
		if r := m.find(f); fr == nil && (r == nil || f-r.first >= r.handed) {
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

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// sameErr reports whether two errors are both nil or the same BusError.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var ba, bb *BusError
	return errors.As(a, &ba) && errors.As(b, &bb) && *ba == *bb
}

// Seeded random operations on a PhysMem and on the frame-map model give the
// same bytes, the same BusErrors, the same allocations and the same number
// of backed frames, across low memory, host RAM at 4 GiB and a VRAM-like
// range at 32 GiB; a backed frame never moves.
func TestPhysMemMatchesFrameMapModel(t *testing.T) {
	zones := []SysPhys{0, 0x1_0000_0000, 0x8_0000_0000}
	const zonePages = 3 * leafFrames // ranges straddle leaf boundaries
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewPhysMem()
		ref := &frameMapModel{frames: make(map[uint64]*[PageSize]byte)}
		var allocs []*Allocator
		var refAllocs []*modelRange
		seen := make(map[uint64]*[PageSize]byte) // frame identity
		addr := func() SysPhys {
			return zones[rng.Intn(len(zones))] + SysPhys(rng.Int63n(zonePages*PageSize))
		}
		span := func() (SysPhys, uint64) {
			base := zones[rng.Intn(len(zones))] + SysPhys(rng.Intn(zonePages))<<PageShift
			return base, uint64(1+rng.Intn(leafFrames)) << PageShift
		}
		for op := 0; op < 2000; op++ {
			where := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(10); k {
			case 0, 1: // AddRange or NewAllocator
				base, size := span()
				var a *Allocator
				p := panics(func() {
					if k == 0 {
						m.AddRange("r", base, size)
					} else {
						a = m.NewAllocator("a", base, size)
					}
				})
				r, ok := ref.addRange(base, size)
				if p == ok {
					t.Fatalf("%s: AddRange(%v, %#x) panicked=%v, model accepts=%v", where, base, size, p, ok)
				}
				if a != nil {
					allocs, refAllocs = append(allocs, a), append(refAllocs, r)
				}
			case 2: // AllocPages
				if len(allocs) == 0 {
					continue
				}
				i, n := rng.Intn(len(allocs)), 1+rng.Intn(leafFrames)
				got, err := allocs[i].AllocPages(n)
				r := refAllocs[i]
				if ok := r.handed+uint64(n) <= r.n; ok != (err == nil) {
					t.Fatalf("%s: AllocPages(%d) err = %v, model fits = %v", where, n, err, ok)
				} else if ok {
					if want := SysPhys((r.first + r.handed) << PageShift); got != want {
						t.Fatalf("%s: AllocPages(%d) = %v, want %v", where, n, got, want)
					}
					r.handed += uint64(n)
				}
			case 3: // Populate
				pa := addr()
				m.Populate(pa)
				ref.frame(Frame(uint64(pa)), true)
			case 4, 5: // Read
				pa, buf := addr(), make([]byte, rng.Intn(3*PageSize))
				want := make([]byte, len(buf))
				err, refErr := m.Read(pa, buf), ref.access(pa, want, false)
				if !sameErr(err, refErr) {
					t.Fatalf("%s: Read(%v) err = %v, model %v", where, pa, err, refErr)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s: Read(%v) bytes differ from the model", where, pa)
				}
			case 6, 7: // Write
				pa, data := addr(), make([]byte, rng.Intn(3*PageSize))
				rng.Read(data)
				err, refErr := m.Write(pa, data), ref.access(pa, data, true)
				if !sameErr(err, refErr) {
					t.Fatalf("%s: Write(%v) err = %v, model %v", where, pa, err, refErr)
				}
			case 8: // FrameBytes
				pa := addr()
				fr, want := m.FrameBytes(pa), ref.frame(Frame(uint64(pa)), false)
				if (fr == nil) != (want == nil) || fr != nil && *fr != *want {
					t.Fatalf("%s: FrameBytes(%v) differs from the model", where, pa)
				}
				if f := Frame(uint64(pa)); fr != nil {
					if old := seen[f]; old != nil && old != fr {
						t.Fatalf("%s: frame %#x moved", where, f)
					}
					seen[f] = fr
				}
			case 9: // Zero
				pa, n := addr(), uint64(rng.Intn(3*PageSize))
				err, refErr := m.Zero(pa, n), ref.zero(pa, n)
				if !sameErr(err, refErr) {
					t.Fatalf("%s: Zero(%v, %#x) err = %v, model %v", where, pa, n, err, refErr)
				}
			}
			if got, want := backedFrames(m), len(ref.frames); got != want {
				t.Fatalf("%s: %d backed frames, model has %d", where, got, want)
			}
		}
		for f, want := range ref.frames {
			if fr := m.FrameBytes(SysPhys(f << PageShift)); fr == nil || *fr != *want {
				t.Fatalf("seed %d: frame %#x differs from the model at the end", seed, f)
			}
		}
	}
}
