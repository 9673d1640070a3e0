package mem

import (
	"bytes"
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
	if len(m.frames) != 0 {
		t.Fatalf("AllocPages backed %d frames, want 0", len(m.frames))
	}
	buf := bytes.Repeat([]byte{0xAA}, 16)
	if err := m.Read(base+2*PageSize+8, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("untouched allocated page reads %x, want zeros", buf)
	}
	if len(m.frames) != 1 || m.FrameBytes(base+3*PageSize) == nil || len(m.frames) != 2 {
		t.Fatalf("first touches backed %d frames, want 2", len(m.frames))
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

func TestU64Roundtrip(t *testing.T) {
	m := NewPhysMem()
	a := m.NewAllocator("ram", 0, PageSize)
	base, _ := a.AllocPage()
	if err := m.WriteU64(base+8, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(base + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("ReadU64 = %#x", v)
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
