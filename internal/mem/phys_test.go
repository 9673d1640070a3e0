package mem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPageHelpers(t *testing.T) {
	if PageBase(0x1234) != 0x1000 {
		t.Errorf("PageBase(0x1234) = %#x", PageBase(0x1234))
	}
	if PageOffset(0x1234) != 0x234 {
		t.Errorf("PageOffset(0x1234) = %#x", PageOffset(0x1234))
	}
	if Frame(0x1234) != 1 {
		t.Errorf("Frame(0x1234) = %d", Frame(0x1234))
	}
	if PagesSpanned(0xFFF, 2) != 2 {
		t.Errorf("PagesSpanned(0xFFF,2) = %d, want 2", PagesSpanned(0xFFF, 2))
	}
	if PagesSpanned(0, 0) != 0 {
		t.Errorf("PagesSpanned(0,0) = %d, want 0", PagesSpanned(0, 0))
	}
	if PagesSpanned(0, PageSize) != 1 {
		t.Errorf("PagesSpanned(0,PageSize) = %d, want 1", PagesSpanned(0, PageSize))
	}
}

// backedFrames counts the frames m has backed.
func backedFrames(m *PhysMem) int {
	n := 0
	for _, r := range m.ranges {
		for _, leaf := range r.leaves {
			if leaf == nil {
				continue
			}
			for _, fr := range leaf {
				if fr != nil {
					n++
				}
			}
		}
	}
	return n
}

func TestPhysReadWriteRoundtrip(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("ram", 0, 16*PageSize)
	base, err := a.AllocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*PageSize+100) // crosses two page boundaries
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := base + 500
	if err := m.Write(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
}

func TestPhysBusError(t *testing.T) {
	m := NewPhysMem()
	err := m.Read(0x100000, make([]byte, 8))
	if _, ok := err.(*BusError); !ok {
		t.Fatalf("read of unbacked memory: err = %v, want BusError", err)
	}
	err = m.Write(0x100000, []byte{1})
	if _, ok := err.(*BusError); !ok {
		t.Fatalf("write of unbacked memory: err = %v, want BusError", err)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("tiny", 0, 2*PageSize)
	if _, err := a.AllocPage(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPage(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPage(); err == nil {
		t.Fatal("third page from a 2-page range should fail")
	}
}

// Allocated pages cost no frame until touched and read as zeros when first
// touched; pages of the range not yet handed out, and addresses outside every
// range, stay unbacked.
func TestAllocPagesBackOnFirstTouch(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("ram", 0, 8*PageSize)
	base, err := a.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	if n := backedFrames(m); n != 0 {
		t.Fatalf("AllocPages backed %d frames, want 0", n)
	}
	buf := bytes.Repeat([]byte{0xAA}, 16)
	if err := m.Read(base+2*PageSize+8, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("untouched allocated page reads %x, want zeros", buf)
	}
	if backedFrames(m) != 1 || m.FrameBytes(base+3*PageSize) == nil || backedFrames(m) != 2 {
		t.Fatalf("first touches backed %d frames, want 2", backedFrames(m))
	}
	if m.FrameBytes(base+4*PageSize) != nil {
		t.Fatal("FrameBytes backed a page not yet allocated")
	}
	next, err := a.AllocPage()
	if err != nil || next != base+4*PageSize {
		t.Fatalf("AllocPage after AllocPages = %v, %v; want %v", next, err, base+4*PageSize)
	}
	if m.FrameBytes(next) == nil {
		t.Fatal("FrameBytes did not back a freshly allocated page")
	}
	if _, err := a.AllocPages(4); err == nil {
		t.Fatal("allocating past the range end succeeded")
	}
	if got, err := a.AllocPages(3); err != nil || got != base+5*PageSize {
		t.Fatalf("AllocPages after a failed one = %v, %v; want %v", got, err, base+5*PageSize)
	}
	if err := m.Read(8*PageSize, buf); err == nil {
		t.Fatal("read past every range succeeded")
	} else if _, ok := err.(*BusError); !ok {
		t.Fatalf("read past every range: err = %v, want BusError", err)
	}
	if m.FrameBytes(8*PageSize) != nil {
		t.Fatal("FrameBytes backed a page outside every range")
	}
}

func TestRangeOverlapPanics(t *testing.T) {
	m := NewPhysMem()
	m.AddRange("a", 0, 4*PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping AddRange did not panic")
		}
	}()
	m.AddRange("b", 2*PageSize, 4*PageSize)
}

func TestZero(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("ram", 0, 4*PageSize)
	base, _ := a.AllocPages(2)
	fill := bytes.Repeat([]byte{0xAA}, 2*PageSize)
	if err := m.Write(base, fill); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(base+100, PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*PageSize)
	if err := m.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		want := byte(0xAA)
		if i >= 100 && i < 100+PageSize {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

// ZeroPage clears a backed frame in place, leaves an untouched handed-out
// frame unbacked (it already reads as zero), and fails exactly as a
// page-sized Write does where the EPT forbids writing or no frame can exist.
func TestZeroPage(t *testing.T) {
	phys := NewPhysMem()
	ram := phys.NewAllocator("ram", 0, 4*PageSize)
	spa, _ := ram.AllocPages(2)
	// A range with nothing handed out: its frames can only be populated.
	phys.AddRange("bar", 0x10_0000, PageSize)
	ept := NewEPT()
	for _, m := range []struct {
		gpa  GuestPhys
		spa  SysPhys
		perm Perm
	}{{0x1000, spa, PermRW}, {0x2000, spa + PageSize, PermRW}, {0x3000, spa + PageSize, PermRead}, {0x4000, 0x10_0000, PermRW}} {
		if err := ept.Map(m.gpa, m.spa, m.perm); err != nil {
			t.Fatal(err)
		}
	}
	s := &GuestSpace{Phys: phys, EPT: ept}
	page, zero := make([]byte, PageSize), make([]byte, PageSize)

	t.Run("untouched", func(t *testing.T) {
		if err := s.ZeroPage(0x1000); err != nil {
			t.Fatal(err)
		}
		if n := backedFrames(phys); n != 0 {
			t.Fatalf("%d frames backed after zeroing an untouched page, want 0", n)
		}
		if err := s.Read(0x1000, page); err != nil || !bytes.Equal(page, zero) {
			t.Fatalf("untouched page after ZeroPage: err %v, reads zero %v", err, bytes.Equal(page, zero))
		}
	})
	t.Run("dirty", func(t *testing.T) {
		if err := s.Write(0x2000, bytes.Repeat([]byte{0xAA}, PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := s.ZeroPage(0x2000 + 123); err != nil {
			t.Fatal(err)
		}
		if err := s.Read(0x2000, page); err != nil || !bytes.Equal(page, zero) {
			t.Fatalf("dirty page after ZeroPage: err %v, reads zero %v", err, bytes.Equal(page, zero))
		}
	})
	for _, c := range []struct {
		name string
		gpa  GuestPhys
	}{{"read-only", 0x3000}, {"unmapped", 0x5000}, {"unbacked", 0x4000}} {
		t.Run(c.name, func(t *testing.T) {
			err, want := s.ZeroPage(c.gpa), s.Write(c.gpa, zero)
			if want == nil || !reflect.DeepEqual(err, want) {
				t.Fatalf("ZeroPage(%v) = %v, want Write's %v", c.gpa, err, want)
			}
		})
	}
}

func TestU64Roundtrip(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("ram", 0, PageSize)
	base, _ := a.AllocPage()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0xDEADBEEFCAFEF00D)
	if err := m.Write(base+8, b[:]); err != nil {
		t.Fatal(err)
	}
	b = [8]byte{}
	if err := m.Read(base+8, b[:]); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(b[:]); v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("U64 roundtrip = %#x", v)
	}
}

// Property: writing a random blob at a random in-range offset then reading
// it back returns the identical blob.
func TestPropertyPhysRoundtrip(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("ram", 0, 64*PageSize)
	base, _ := a.AllocPages(64)
	f := func(off uint16, blob []byte) bool {
		if len(blob) > 32*PageSize {
			blob = blob[:32*PageSize]
		}
		start := base + SysPhys(off)
		if err := m.Write(start, blob); err != nil {
			return false
		}
		got := make([]byte, len(blob))
		if err := m.Read(start, got); err != nil {
			return false
		}
		return bytes.Equal(got, blob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw" || PermRead.String() != "r-" || Perm(0).String() != "--" {
		t.Fatalf("perm strings wrong: %q %q %q", PermRW, PermRead, Perm(0))
	}
}
