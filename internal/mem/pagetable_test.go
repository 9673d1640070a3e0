package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// newTestSpace builds a little guest-physical world: an EPT-backed space and
// a guest-frame allocator drawing from it.
func newTestSpace(t testing.TB, npages int) (*GuestSpace, func() (GuestPhys, error)) {
	t.Helper()
	phys := NewPhysMem()
	a := phys.NewAllocator("guest-ram", 0x1000000, uint64(npages)*PageSize)
	ept := NewEPT()
	space := &GuestSpace{Phys: phys, EPT: ept}
	var nextGPA GuestPhys
	alloc := func() (GuestPhys, error) {
		spa, err := a.AllocPage()
		if err != nil {
			return 0, err
		}
		gpa := nextGPA
		nextGPA += PageSize
		if err := ept.Map(gpa, spa, PermRW); err != nil {
			return 0, err
		}
		return gpa, nil
	}
	return space, alloc
}

func TestPageTableMapWalk(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, err := NewPageTable(space, alloc)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := alloc()
	va := GuestVirt(0x40001000)
	if err := pt.Map(va, target, PermRW); err != nil {
		t.Fatal(err)
	}
	gpa, err := pt.Walk(va+0x123, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if gpa != target+0x123 {
		t.Fatalf("Walk = %v, want %v", gpa, target+0x123)
	}
}

func TestPageTableWalkFaultsOnUnmapped(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	_, err := pt.Walk(0x40000000, PermRead)
	var pf *PageFault
	if !errors.As(err, &pf) || pf.Present {
		t.Fatalf("err = %v, want not-present PageFault", err)
	}
}

func TestPageTableWritePermission(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	target, _ := alloc()
	if err := pt.Map(0x40000000, target, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Walk(0x40000000, PermRead); err != nil {
		t.Fatal(err)
	}
	_, err := pt.Walk(0x40000000, PermWrite)
	var pf *PageFault
	if !errors.As(err, &pf) || !pf.Present {
		t.Fatalf("err = %v, want present PageFault (write to RO page)", err)
	}
}

func TestSetLeafRequiresIntermediates(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	target, _ := alloc()
	va := GuestVirt(0x80000000)
	if err := pt.SetLeaf(va, target, PermRW); err == nil {
		t.Fatal("SetLeaf without intermediates should fail")
	}
	if err := pt.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	if err := pt.SetLeaf(va, target, PermRW); err != nil {
		t.Fatalf("SetLeaf after EnsureIntermediates: %v", err)
	}
	if _, err := pt.Walk(va, PermRead); err != nil {
		t.Fatal(err)
	}
}

// The hypervisor loads the same table through LoadPageTable (it cannot
// allocate guest frames) and must be able to both walk it and fix leaves.
func TestHypervisorViewOfGuestTable(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	va := GuestVirt(0x40000000)
	if err := pt.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	hvView := LoadPageTable(space, pt.Root())
	target, _ := alloc()
	if err := hvView.SetLeaf(va, target, PermRW); err != nil {
		t.Fatal(err)
	}
	// The guest's own view sees the hypervisor's edit: same frames.
	gpa, err := pt.Walk(va, PermRead)
	if err != nil || gpa != target {
		t.Fatalf("guest walk after hypervisor SetLeaf: gpa=%v err=%v", gpa, err)
	}
	// But the hypervisor view cannot create intermediates.
	if err := hvView.SetLeaf(0xBFC00000, target, PermRW); err == nil {
		t.Fatal("hypervisor view grew intermediate levels")
	}
}

// A table page the EPT maps read-only can be walked but not edited: the
// entry store is an EPT violation at the entry's address, and the entry and
// the walk stay as they were.
func TestEditOfReadOnlyTablePageFaults(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	target, _ := alloc()
	va := GuestVirt(0x40003000)
	if err := pt.Map(va, target, PermRW); err != nil {
		t.Fatal(err)
	}
	leaf, err := pt.leafTable(va)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.EPT.SetPerm(leaf, PermRead); err != nil {
		t.Fatal(err)
	}
	want := &EPTViolation{GPA: leaf + 3*8, Access: PermWrite, Allowed: PermRead, Mapped: true}
	if err := pt.Unmap(va); !reflect.DeepEqual(err, want) {
		t.Fatalf("Unmap through a read-only table page: err = %v, want %v", err, want)
	}
	if err := pt.SetLeaf(va+PageSize, target, PermRW); !reflect.DeepEqual(err, &EPTViolation{
		GPA: leaf + 4*8, Access: PermWrite, Allowed: PermRead, Mapped: true}) {
		t.Fatalf("SetLeaf through a read-only table page: err = %v", err)
	}
	if gpa, err := pt.Walk(va, PermWrite); err != nil || gpa != target {
		t.Fatalf("walk after the refused edits = %v, %v; want %v", gpa, err, target)
	}
}

func TestUnmapThenWalkFaults(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	target, _ := alloc()
	if err := pt.Map(0x40000000, target, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := pt.Unmap(0x40000000); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Walk(0x40000000, PermRead); err == nil {
		t.Fatal("walk after unmap should fault")
	}
	if err := pt.Unmap(0x40000000); err == nil {
		t.Fatal("double unmap should fail")
	}
}

func TestDoubleMapFails(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	target, _ := alloc()
	if err := pt.Map(0x40000000, target, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x40000000, target, PermRW); err == nil {
		t.Fatal("double map should fail")
	}
}

func TestVirtSpaceRoundtrip(t *testing.T) {
	space, alloc := newTestSpace(t, 64)
	pt, _ := NewPageTable(space, alloc)
	// Map three virtually-contiguous pages onto whatever frames come back.
	base := GuestVirt(0x40000000)
	for i := 0; i < 3; i++ {
		gpa, _ := alloc()
		if err := pt.Map(base+GuestVirt(i*PageSize), gpa, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	vs := &VirtSpace{PT: pt, Space: space}
	data := make([]byte, 2*PageSize+500)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := vs.Write(base+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := vs.Read(base+100, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if err := vs.Write(base+8, binary.LittleEndian.AppendUint32(nil, 0xCAFEBABE)); err != nil {
		t.Fatal(err)
	}
	if v, _ := vs.ReadU32(base + 8); v != 0xCAFEBABE {
		t.Fatalf("U32 roundtrip = %#x", v)
	}
}

// Property: mapping distinct pages at distinct VAs and writing a distinct
// marker through each VA never aliases — every marker reads back intact.
func TestPropertyNoAliasing(t *testing.T) {
	f := func(seed uint8) bool {
		space, alloc := newTestSpace(t, 256)
		pt, err := NewPageTable(space, alloc)
		if err != nil {
			return false
		}
		vs := &VirtSpace{PT: pt, Space: space}
		n := 8 + int(seed)%16
		vas := make([]GuestVirt, n)
		for i := 0; i < n; i++ {
			// Spread VAs across PDPT/PD boundaries.
			vas[i] = GuestVirt(uint64(i) * 0x00200000) // one PD entry apart
			gpa, err := alloc()
			if err != nil {
				return false
			}
			if err := pt.Map(vas[i], gpa, PermRW); err != nil {
				return false
			}
			if err := vs.Write(vas[i], binary.LittleEndian.AppendUint64(nil, uint64(seed)<<32|uint64(i))); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			var b [8]byte
			err := vs.Read(vas[i], b[:])
			if err != nil || binary.LittleEndian.Uint64(b[:]) != uint64(seed)<<32|uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Walk agrees with Map for random page-aligned VAs across the
// 32-bit space.
func TestPropertyWalkMatchesMap(t *testing.T) {
	space, alloc := newTestSpace(t, 2048)
	pt, err := NewPageTable(space, alloc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[GuestVirt]GuestPhys{}
	f := func(raw uint32) bool {
		va := GuestVirt(PageBase(uint64(raw)))
		if _, dup := seen[va]; dup {
			want := seen[va]
			got, err := pt.Walk(va, PermRead)
			return err == nil && got == want
		}
		gpa, err := alloc()
		if err != nil {
			return true // ran out of frames; vacuous
		}
		if err := pt.Map(va, gpa, PermRW); err != nil {
			return false
		}
		seen[va] = gpa
		got, err := pt.Walk(va, PermRead)
		return err == nil && got == gpa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrStrings(t *testing.T) {
	for _, c := range []struct {
		v    fmt.Stringer
		want string
	}{
		{SysPhys(0x1000), "spa:0x1000"},
		{GuestPhys(0x2000), "gpa:0x2000"},
		{GuestVirt(0x3000), "gva:0x3000"},
	} {
		if c.v.String() != c.want {
			t.Errorf("%v != %s", c.v, c.want)
		}
	}
}
