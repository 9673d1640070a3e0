package grant

import (
	"errors"
	"testing"
	"testing/quick"

	"paradice/internal/mem"
)

// byteAccessor is a plain in-memory page for unit tests.
type byteAccessor struct{ page [mem.PageSize]byte }

func (a *byteAccessor) Page() (*[mem.PageSize]byte, error) { return &a.page, nil }
func (a *byteAccessor) WriteAt(off int, b []byte) error {
	copy(a.page[off:], b)
	return nil
}

func TestDeclareValidateRevoke(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	ref, err := tab.Declare(0x7000, []Op{
		{Kind: KindCopyTo, VA: 0x40000000, Len: 256},
		{Kind: KindCopyFrom, VA: 0x40001000, Len: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := Validate(acc, ref, KindCopyTo, 0x40000010, 100)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0x7000 {
		t.Fatalf("ptRoot = %v, want gpa:0x7000", root)
	}
	if _, err := Validate(acc, ref, KindCopyFrom, 0x40001000, 64); err != nil {
		t.Fatal(err)
	}
	if err := tab.Revoke(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(acc, ref, KindCopyTo, 0x40000010, 100); err == nil {
		t.Fatal("validate succeeded after revoke")
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	ref, _ := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 256}})
	cases := []struct {
		va mem.GuestVirt
		n  uint64
	}{
		{0x0FFF, 10},  // starts before
		{0x10F0, 32},  // runs past the end
		{0x2000, 8},   // entirely elsewhere
		{0x1000, 257}, // one byte too long
	}
	for _, c := range cases {
		_, err := Validate(acc, ref, KindCopyTo, c.va, c.n)
		var d *DeniedError
		if !errors.As(err, &d) {
			t.Fatalf("Validate(%v,%d) = %v, want DeniedError", c.va, c.n, err)
		}
	}
	// Exactly the declared range is allowed.
	if _, err := Validate(acc, ref, KindCopyTo, 0x1000, 256); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsWrongKind(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	ref, _ := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 256}})
	if _, err := Validate(acc, ref, KindCopyFrom, 0x1000, 16); err == nil {
		t.Fatal("a copy-to grant validated a copy-from request")
	}
}

func TestValidateRejectsWrongRef(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	ref, _ := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 256}})
	if _, err := Validate(acc, ref+1, KindCopyTo, 0x1000, 16); err == nil {
		t.Fatal("wrong ref validated")
	}
	if _, err := Validate(acc, 0, KindCopyTo, 0x1000, 16); err == nil {
		t.Fatal("ref 0 validated")
	}
}

func TestUnmapSatisfiedByMapGrant(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	ref, _ := tab.Declare(0x7000, []Op{{Kind: KindMapPage, VA: 0x40000000, Len: 8 * mem.PageSize}})
	if _, err := Validate(acc, ref, KindUnmap, 0x40002000, mem.PageSize); err != nil {
		t.Fatalf("unmap within a map grant should validate: %v", err)
	}
	if _, err := Validate(acc, ref, KindCopyTo, 0x40000000, 16); err == nil {
		t.Fatal("map grant validated a copy")
	}
}

func TestTableFullRollsBack(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	// Fill all 64 slots.
	for i := 0; i < Slots; i++ {
		if _, err := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 16}}); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	ref, err := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x2000, Len: 16}})
	if err == nil {
		t.Fatalf("129th declaration succeeded with ref %d", ref)
	}
}

func TestRevokeFreesSlots(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	var refs []uint32
	for i := 0; i < Slots; i++ {
		ref, err := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 16}})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	for _, r := range refs {
		if err := tab.Revoke(r); err != nil {
			t.Fatal(err)
		}
	}
	// All 64 slots free again.
	for i := 0; i < Slots; i++ {
		if _, err := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 16}}); err != nil {
			t.Fatalf("slot %d after revoke-all: %v", i, err)
		}
	}
}

func TestOverlappingLenOverflowRejected(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	ref, _ := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 256}})
	// va+n overflows uint64; must not validate.
	if _, err := Validate(acc, ref, KindCopyTo, 0x1000, ^uint64(0)); err == nil {
		t.Fatal("overflowing length validated")
	}
}

// Property: a validated request is always fully inside a declared range of
// the same ref and compatible kind (soundness of the runtime check).
func TestPropertyValidateSound(t *testing.T) {
	f := func(declVA uint32, declLen uint16, reqOff uint16, reqLen uint16, kindRaw uint8) bool {
		acc := &byteAccessor{}
		tab := NewTable(acc)
		kind := Kind(kindRaw%4 + 1)
		dlen := uint64(declLen) + 1
		ref, err := tab.Declare(0x7000, []Op{{Kind: kind, VA: mem.GuestVirt(declVA), Len: dlen}})
		if err != nil {
			return false
		}
		va := mem.GuestVirt(declVA) + mem.GuestVirt(reqOff)
		n := uint64(reqLen)
		_, err = Validate(acc, ref, kind, va, n)
		inside := uint64(reqOff)+n <= dlen
		return (err == nil) == inside
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindCopyTo.String() != "copy-to-user" || Kind(9).String() != "kind(9)" {
		t.Fatal("Kind.String wrong")
	}
}

// OnRevoke subscribers fire after every successful Revoke, in registration
// order, with the revoked ref — the hook the backend's grant-map cache hangs
// its invalidation on. A failed Revoke must not notify anyone.
func TestOnRevokeNotifiesSubscribersInOrder(t *testing.T) {
	acc := &byteAccessor{}
	tab := NewTable(acc)
	var calls []string
	tab.OnRevoke(func(ref uint32) { calls = append(calls, "a") })
	tab.OnRevoke(func(ref uint32) { calls = append(calls, "b") })
	ref1, err := tab.Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 64}})
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := tab.Declare(0x7000, []Op{{Kind: KindCopyFrom, VA: 0x2000, Len: 64}})
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint32
	tab.OnRevoke(func(ref uint32) { seen = append(seen, ref) })
	if err := tab.Revoke(ref1); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != "a" || calls[1] != "b" {
		t.Fatalf("subscriber order = %v, want [a b]", calls)
	}
	if len(seen) != 1 || seen[0] != ref1 {
		t.Fatalf("seen = %v, want [%d]", seen, ref1)
	}
	// Revoke is idempotent: re-revoking ref1 is a no-op success, and it
	// re-notifies — subscribers (the map cache) must tolerate refs they no
	// longer hold state for.
	if err := tab.Revoke(ref1); err != nil {
		t.Fatalf("second revoke of ref1: %v", err)
	}
	if len(seen) != 2 || seen[1] != ref1 {
		t.Fatalf("seen = %v after idempotent re-revoke", seen)
	}
	if err := tab.Revoke(ref2); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[2] != ref2 {
		t.Fatalf("seen = %v after revoking ref2", seen)
	}
}

// TestOpCovers pins the covering rule both Validate and the hypervisor's
// grant cache apply: exact boundaries, kind matching, unmap satisfied by a
// map-page op (and not the reverse), and accesses whose end wraps.
func TestOpCovers(t *testing.T) {
	copyTo := Op{Kind: KindCopyTo, VA: 0x1000, Len: 256}
	mapPage := Op{Kind: KindMapPage, VA: 0x4000_0000, Len: 2 * mem.PageSize}
	unmap := Op{Kind: KindUnmap, VA: 0x4000_0000, Len: 2 * mem.PageSize}
	huge := Op{Kind: KindCopyFrom, VA: 0x1000, Len: ^uint64(0) - 0x1000}
	cases := []struct {
		name string
		op   Op
		kind Kind
		va   mem.GuestVirt
		n    uint64
		want bool
	}{
		{"whole range", copyTo, KindCopyTo, 0x1000, 256, true},
		{"last byte", copyTo, KindCopyTo, 0x10FF, 1, true},
		{"empty at the end", copyTo, KindCopyTo, 0x1100, 0, true},
		{"one byte too long", copyTo, KindCopyTo, 0x1000, 257, false},
		{"one byte before", copyTo, KindCopyTo, 0x0FFF, 1, false},
		{"one byte after", copyTo, KindCopyTo, 0x1100, 1, false},
		{"other kind", copyTo, KindCopyFrom, 0x1000, 16, false},
		{"end wraps into the range", copyTo, KindCopyTo, 0x1010, 1<<64 - 0x1000, false},
		{"end wraps past the top", huge, KindCopyFrom, 0xFFFF_FFFF_FFFF_FFF0, 0x20, false},
		{"just below the top", huge, KindCopyFrom, 0xFFFF_FFFF_FFFF_FFF0, 0xF, true},
		{"unmap by map-page", mapPage, KindUnmap, 0x4000_1000, mem.PageSize, true},
		{"unmap past the map-page range", mapPage, KindUnmap, 0x4000_1000, 2 * mem.PageSize, false},
		{"map-page by unmap", unmap, KindMapPage, 0x4000_0000, mem.PageSize, false},
		{"copy by map-page", mapPage, KindCopyTo, 0x4000_0000, 8, false},
	}
	for _, c := range cases {
		if got := c.op.Covers(c.kind, c.va, c.n); got != c.want {
			t.Errorf("%s: %+v.Covers(%v, %v, %d) = %v, want %v", c.name, c.op, c.kind, c.va, c.n, got, c.want)
		}
	}
}
