package grant

// Tests of the page view the scans read through: it enforces the same checks
// a read does, the scans allocate nothing, and every scan decides exactly
// what the field-by-field reads it replaced decided.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"paradice/internal/mem"
)

const (
	viewGPA = mem.GuestPhys(0x3000)
	viewSPA = mem.SysPhys(0x10000)
)

// guestPage returns a guest accessor for one backed page mapped read-write,
// and the EPT that maps it.
func guestPage(t *testing.T) (*GuestAccessor, *mem.EPT) {
	t.Helper()
	phys := mem.NewPhysMem()
	phys.Populate(viewSPA)
	ept := mem.NewEPT()
	if err := ept.Map(viewGPA, viewSPA, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	return &GuestAccessor{Space: &mem.GuestSpace{Phys: phys, EPT: ept}, GPA: viewGPA}, ept
}

func TestScansDoNotAllocate(t *testing.T) {
	ga, _ := guestPage(t)
	accs := []struct {
		name string
		acc  Accessor
	}{
		{"guest", ga},
		{"phys", &PhysAccessor{Phys: ga.Space.Phys, SPA: viewSPA}},
	}
	ref, err := NewTable(ga).Declare(0x7000, []Op{
		{Kind: KindCopyFrom, VA: 0x1000, Len: 64},
		{Kind: KindMapPage, VA: 0x8000, Len: 0x2000},
		{Kind: KindCopyTo, VA: 0x40000000, Len: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Validate(a.acc, ref, KindCopyTo, 0x40000010, 100); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := FindRef(a.acc, ref); !ok || err != nil {
				t.Fatal("FindRef missed a declared ref")
			}
			if _, ok, _ := FindRef(a.acc, ref+1); ok {
				t.Fatal("FindRef found an undeclared ref")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Validate+FindRef allocate %v times per call, want 0", a.name, allocs)
		}
	}
}

// TestPageEnforcesAccess: a scan through a page the reader may not read
// fails with the error a read would, never with a verdict about the bytes.
func TestPageEnforcesAccess(t *testing.T) {
	ga, ept := guestPage(t)
	ref, err := NewTable(ga).Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(ga, ref, KindCopyTo, 0x1000, 64); err != nil {
		t.Fatal(err)
	}
	wantViolation := func(what string, err error, mapped bool) {
		t.Helper()
		var v *mem.EPTViolation
		if !errors.As(err, &v) || v.GPA != viewGPA || v.Access != mem.PermRead || v.Mapped != mapped {
			t.Fatalf("%s: got %v, want an EPT violation reading %v (mapped=%v)", what, err, viewGPA, mapped)
		}
	}
	if err := ept.SetPerm(viewGPA, mem.PermWrite); err != nil {
		t.Fatal(err)
	}
	_, err = Validate(ga, ref, KindCopyTo, 0x1000, 64)
	wantViolation("Validate without PermRead", err, true)
	_, _, err = FindRef(ga, ref)
	wantViolation("FindRef without PermRead", err, true)
	_, err = NewTable(ga).Declare(0x7000, []Op{{Kind: KindCopyTo, VA: 0x1000, Len: 64}})
	wantViolation("Declare without PermRead", err, true)
	if err := ept.Unmap(viewGPA); err != nil {
		t.Fatal(err)
	}
	_, err = Validate(ga, ref, KindCopyTo, 0x1000, 64)
	wantViolation("Validate unmapped", err, false)

	pa := &PhysAccessor{Phys: ga.Space.Phys, SPA: viewSPA + mem.PageSize}
	for what, err := range map[string]error{
		"Validate": func() error { _, err := Validate(pa, 1, KindCopyTo, 0x1000, 1); return err }(),
		"FindRef":  func() error { _, _, err := FindRef(pa, 1); return err }(),
		"Revoke":   NewTable(pa).Revoke(1),
	} {
		var b *mem.BusError
		if !errors.As(err, &b) || b.Addr != pa.SPA || b.Op != "read" {
			t.Fatalf("%s on an unbacked SPA: got %v, want a bus error reading %v", what, err, pa.SPA)
		}
	}
}

// ---- field-by-field reference ----

// refPage reads the table one field at a time, copying each into a fresh
// buffer, as the scans did before they took one view per call.
type refPage struct{ b *[mem.PageSize]byte }

func (p refPage) field(off, n int) []byte {
	buf := make([]byte, n)
	copy(buf, p.b[off:off+n])
	return buf
}

func (p refPage) ref(slot int) uint32 {
	return binary.LittleEndian.Uint32(p.field(slot*slotSize+offRef, 4))
}

func (p refPage) u64(slot, off int) uint64 {
	return binary.LittleEndian.Uint64(p.field(slot*slotSize+off, 8))
}

func (p refPage) validate(ref uint32, kind Kind, va mem.GuestVirt, n uint64) (mem.GuestPhys, error) {
	if ref == 0 {
		return 0, &DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
	}
	for slot := 0; slot < slotCount; slot++ {
		if p.ref(slot) != ref {
			continue
		}
		k := Kind(p.field(slot*slotSize+offKind, 1)[0])
		if k != kind && !(kind == KindUnmap && k == KindMapPage) {
			continue
		}
		eva, elen := p.u64(slot, offVA), p.u64(slot, offLen)
		if uint64(va) >= eva && uint64(va)+n <= eva+elen && uint64(va)+n >= uint64(va) {
			return mem.GuestPhys(p.u64(slot, offPTRoot)), nil
		}
	}
	return 0, &DeniedError{Ref: ref, Kind: kind, VA: va, Len: n}
}

func (p refPage) findRef(ref uint32) (mem.GuestPhys, bool) {
	if ref == 0 {
		return 0, false
	}
	for slot := 0; slot < slotCount; slot++ {
		if p.ref(slot) == ref {
			return mem.GuestPhys(p.u64(slot, offPTRoot)), true
		}
	}
	return 0, false
}

func (p refPage) putSlot(slot int, ref uint32, ptRoot mem.GuestPhys, op Op) {
	e := p.b[slot*slotSize : (slot+1)*slotSize]
	clear(e)
	binary.LittleEndian.PutUint32(e[offRef:], ref)
	e[offKind] = uint8(op.Kind)
	binary.LittleEndian.PutUint64(e[offVA:], uint64(op.VA))
	binary.LittleEndian.PutUint64(e[offLen:], op.Len)
	binary.LittleEndian.PutUint64(e[offPTRoot:], uint64(ptRoot))
}

func (p refPage) revoke(ref uint32) {
	for slot := 0; slot < slotCount; slot++ {
		if p.ref(slot) == ref {
			clear(p.b[slot*slotSize : (slot+1)*slotSize])
		}
	}
}

// declare mirrors Table.Declare for a table whose next reference is ref.
func (p refPage) declare(ref uint32, ptRoot mem.GuestPhys, ops []Op) error {
	written := 0
	for slot := 0; slot < slotCount && written < len(ops); slot++ {
		if p.ref(slot) != 0 {
			continue
		}
		p.putSlot(slot, ref, ptRoot, ops[written])
		written++
	}
	if written < len(ops) {
		p.revoke(ref)
		return errors.New("table full")
	}
	return nil
}

// ---- equivalence ----

// pickRef draws a reference number for random pages and queries: free,
// small and colliding, wrapped, or anything.
func pickRef(rng *rand.Rand) uint32 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 0xFFFFFFFF
	case 2:
		return uint32(rng.Int63())
	default:
		return uint32(1 + rng.Intn(4))
	}
}

// randomTable fills a page with slots no honest frontend writes: duplicate
// and wrapped refs, unknown kinds, ranges that wrap the address space, and
// random filler between the fields.
func randomTable(rng *rand.Rand) *[mem.PageSize]byte {
	var pg [mem.PageSize]byte
	rng.Read(pg[:])
	for slot := 0; slot < slotCount; slot++ {
		e := pg[slot*slotSize:]
		binary.LittleEndian.PutUint32(e[offRef:], pickRef(rng))
		e[offKind] = uint8(rng.Intn(7))
		binary.LittleEndian.PutUint64(e[offVA:], uint64(rng.Intn(4))<<12|uint64(rng.Intn(2))<<63)
		binary.LittleEndian.PutUint64(e[offLen:], []uint64{0, 1, 0x1000, 0x3000, ^uint64(0)}[rng.Intn(5)])
	}
	return &pg
}

func TestScanEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg := randomTable(rng)
		want := *pg
		acc := &byteAccessor{page: *pg}
		ref := refPage{&want}
		for i := 0; i < 64; i++ {
			r := pickRef(rng)
			kind := Kind(rng.Intn(7))
			va := mem.GuestVirt(uint64(rng.Intn(5))<<12 + uint64(rng.Intn(0x1100)))
			n := []uint64{0, 1, 64, 0x1000, ^uint64(0)}[rng.Intn(5)]
			if rng.Intn(2) == 0 {
				// Aim at a slot's own range, up to or one past its end.
				slot := rng.Intn(slotCount)
				r, kind = ref.ref(slot), Kind(pg[slot*slotSize+offKind])
				va = mem.GuestVirt(ref.u64(slot, offVA) + uint64(rng.Intn(2)))
				n = ref.u64(slot, offLen) - uint64(rng.Intn(2)) + uint64(rng.Intn(2))
			}
			gotRoot, gotErr := Validate(acc, r, kind, va, n)
			wantRoot, wantErr := ref.validate(r, kind, va, n)
			if gotRoot != wantRoot || (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && *gotErr.(*DeniedError) != *wantErr.(*DeniedError)) {
				t.Logf("seed %d: Validate(%d, %v, %v, %d) = %v, %v; reference %v, %v",
					seed, r, kind, va, n, gotRoot, gotErr, wantRoot, wantErr)
				return false
			}
			fr, fok, ferr := FindRef(acc, r)
			wr, wok := ref.findRef(r)
			if fr != wr || fok != wok || ferr != nil {
				t.Logf("seed %d: FindRef(%d) = %v, %v, %v; reference %v, %v", seed, r, fr, fok, ferr, wr, wok)
				return false
			}
		}
		tab := NewTable(acc)
		tab.nextRef = pickRef(rng) | 1
		for i := 0; i < 24; i++ {
			if rng.Intn(2) == 0 {
				ops := make([]Op, 1+rng.Intn(12))
				for j := range ops {
					ops[j] = Op{Kind: Kind(1 + rng.Intn(4)), VA: mem.GuestVirt(rng.Int63()), Len: uint64(rng.Int63())}
				}
				root := mem.GuestPhys(rng.Int63())
				next := tab.nextRef
				_, gotErr := tab.Declare(root, ops)
				wantErr := ref.declare(next, root, ops)
				if (gotErr == nil) != (wantErr == nil) {
					t.Logf("seed %d: Declare error %v, reference %v", seed, gotErr, wantErr)
					return false
				}
			} else {
				r := pickRef(rng)
				if err := tab.Revoke(r); err != nil {
					t.Logf("seed %d: Revoke(%d): %v", seed, r, err)
					return false
				}
				ref.revoke(r)
			}
			if !bytes.Equal(acc.page[:], want[:]) {
				t.Logf("seed %d: page bytes differ from the reference after step %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
