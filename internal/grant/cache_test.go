package grant

// Tests of the resolution an accessor keeps between calls: a warm accessor
// must see every EPT change on its next call and fail exactly as a cold one
// does.

import (
	"errors"
	"reflect"
	"testing"

	"paradice/internal/mem"
)

// coldErrs returns what a fresh accessor on the same page reports for a
// read of the page and a one-word write at off.
func coldErrs(a *GuestAccessor, off int) (pageErr, writeErr error) {
	cold := &GuestAccessor{Space: a.Space, GPA: a.GPA}
	_, pageErr = cold.Page()
	return pageErr, cold.WriteAt(off, []byte{1, 2, 3, 4})
}

// warm reads and writes the page once so the accessor holds a resolution.
func warm(t *testing.T, a *GuestAccessor) {
	t.Helper()
	if _, err := a.Page(); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteAt(8, []byte{9}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmAccessorSeesEveryEPTChange(t *testing.T) {
	const off = 64
	for _, c := range []struct {
		name                  string
		change                func(*mem.EPT) error
		pageFails, writeFails bool
	}{
		{"unmapped", func(e *mem.EPT) error { return e.Unmap(viewGPA) }, true, true},
		{"read-only", func(e *mem.EPT) error { return e.SetPerm(viewGPA, mem.PermRead) }, false, true},
		{"write-only", func(e *mem.EPT) error { return e.SetPerm(viewGPA, mem.PermWrite) }, true, false},
	} {
		a, ept := guestPage(t)
		warm(t, a)
		if err := c.change(ept); err != nil {
			t.Fatal(err)
		}
		wantPage, wantWrite := coldErrs(a, off)
		if (wantPage != nil) != c.pageFails || (wantWrite != nil) != c.writeFails {
			t.Fatalf("%s: cold accessor got Page %v, WriteAt %v", c.name, wantPage, wantWrite)
		}
		_, gotPage := a.Page()
		gotWrite := a.WriteAt(off, []byte{1, 2, 3, 4})
		if !reflect.DeepEqual(gotPage, wantPage) {
			t.Errorf("%s: warm Page = %v, cold %v", c.name, gotPage, wantPage)
		}
		if !reflect.DeepEqual(gotWrite, wantWrite) {
			t.Errorf("%s: warm WriteAt = %v, cold %v", c.name, gotWrite, wantWrite)
		}
		var v *mem.EPTViolation
		if c.writeFails && !errors.As(gotWrite, &v) {
			t.Errorf("%s: warm WriteAt = %v, want an EPT violation", c.name, gotWrite)
		}
	}
}

// Remapping the page to another frame, or swapping in another EPT, moves
// the next call to the new frame.
func TestWarmAccessorFollowsRemap(t *testing.T) {
	a, ept := guestPage(t)
	phys := a.Space.Phys
	oldFrame := phys.FrameBytes(viewSPA)
	newSPA := viewSPA + 4*mem.PageSize
	phys.Populate(newSPA)
	newFrame := phys.FrameBytes(newSPA)

	warm(t, a)
	if err := ept.Unmap(viewGPA); err != nil {
		t.Fatal(err)
	}
	if err := ept.Map(viewGPA, newSPA, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if pg, err := a.Page(); err != nil || pg != newFrame {
		t.Fatalf("Page after remap = %p, %v; want the new frame %p", pg, err, newFrame)
	}
	if err := a.WriteAt(100, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if newFrame[100] != 0xAB || oldFrame[100] != 0 {
		t.Fatalf("WriteAt after remap wrote old frame %#x, new frame %#x; want only the new", oldFrame[100], newFrame[100])
	}

	// A second EPT at the same generation as the first, mapping the page to
	// a third frame: the table itself, not only its generation, must match.
	thirdSPA := viewSPA + 8*mem.PageSize
	phys.Populate(thirdSPA)
	other := mem.NewEPT()
	if err := other.Map(viewGPA, thirdSPA, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	for other.Generation() < ept.Generation() {
		if err := other.SetPerm(viewGPA, mem.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if other.Generation() != ept.Generation() {
		t.Fatalf("generations %d and %d, want equal", other.Generation(), ept.Generation())
	}
	a.Space.EPT = other
	if pg, err := a.Page(); err != nil || pg != phys.FrameBytes(thirdSPA) {
		t.Fatalf("Page after swapping the EPT = %p, %v; want the third frame", pg, err)
	}
}

// A physical accessor fails on an unbacked frame, and serves the frame once
// it is backed: only a success is kept.
func TestPhysAccessorKeepsOnlyABackedFrame(t *testing.T) {
	phys := mem.NewPhysMem()
	spa := viewSPA
	a := &PhysAccessor{Phys: phys, SPA: spa}
	var b *mem.BusError
	if _, err := a.Page(); !errors.As(err, &b) || b.Addr != spa {
		t.Fatalf("Page of an unbacked frame = %v, want a bus error at %v", err, spa)
	}
	phys.Populate(spa)
	if pg, err := a.Page(); err != nil || pg != phys.FrameBytes(spa) {
		t.Fatalf("Page after Populate = %p, %v; want the backed frame", pg, err)
	}
}
