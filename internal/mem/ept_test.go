package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestEPTMapTranslate(t *testing.T) {
	e := NewEPT()
	if err := e.Map(0x10000, 0x400000, PermRW); err != nil {
		t.Fatal(err)
	}
	spa, err := e.Translate(0x10123, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if spa != 0x400123 {
		t.Fatalf("Translate = %v, want spa:0x400123", spa)
	}
}

func TestEPTDoubleMapFails(t *testing.T) {
	e := NewEPT()
	if err := e.Map(0x10000, 0x400000, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := e.Map(0x10000, 0x500000, PermRW); err == nil {
		t.Fatal("double map succeeded")
	}
}

func TestEPTViolationUnmapped(t *testing.T) {
	e := NewEPT()
	_, err := e.Translate(0x999000, PermRead)
	var v *EPTViolation
	if !errors.As(err, &v) || v.Mapped {
		t.Fatalf("err = %v, want unmapped EPTViolation", err)
	}
}

func TestEPTPermissionEnforced(t *testing.T) {
	e := NewEPT()
	if err := e.Map(0x10000, 0x400000, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Translate(0x10000, PermRead); err != nil {
		t.Fatalf("read with read perm: %v", err)
	}
	_, err := e.Translate(0x10000, PermWrite)
	var v *EPTViolation
	if !errors.As(err, &v) || !v.Mapped {
		t.Fatalf("write with read-only perm: err = %v, want mapped EPTViolation", err)
	}
}

// Translate with zero access bits is a presence-only check: this is the
// hypervisor's privileged walk, which must work even on pages whose EPT
// permissions have been stripped for device data isolation.
func TestEPTPrivilegedWalkIgnoresPerms(t *testing.T) {
	e := NewEPT()
	if err := e.Map(0x10000, 0x400000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Translate(0x10000, 0); err != nil {
		t.Fatalf("presence-only translate failed: %v", err)
	}
	if _, err := e.Translate(0x10000, PermRead); err == nil {
		t.Fatal("read of no-perm page should fault")
	}
}

func TestEPTSetPerm(t *testing.T) {
	e := NewEPT()
	if err := e.Map(0x10000, 0x400000, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPerm(0x10000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Translate(0x10000, PermRead); err == nil {
		t.Fatal("read after perm strip should fault")
	}
	if err := e.SetPerm(0x20000, PermRW); err == nil {
		t.Fatal("SetPerm of unmapped page should fail")
	}
}

func TestEPTUnmap(t *testing.T) {
	e := NewEPT()
	if err := e.Map(0x10000, 0x400000, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(0x10000); err != nil {
		t.Fatal(err)
	}
	if e.Mapped(0x10000) {
		t.Fatal("still mapped after unmap")
	}
	if err := e.Unmap(0x10000); err == nil {
		t.Fatal("double unmap should fail")
	}
}

func TestEPTFindUnusedRange(t *testing.T) {
	e := NewEPT()
	// Occupy pages 0,1,2 and 4 of the window; 3 is free, 5.. are free.
	lo, hi := GuestPhys(0x100000), GuestPhys(0x200000)
	for _, f := range []uint64{0, 1, 2, 4} {
		if err := e.Map(lo+GuestPhys(f*PageSize), SysPhys(0x400000+f*PageSize), PermRW); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.FindUnusedRange(lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != lo+3*PageSize {
		t.Fatalf("1-page gap at %v, want %v", got, lo+3*PageSize)
	}
	got, err = e.FindUnusedRange(lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != lo+5*PageSize {
		t.Fatalf("2-page gap at %v, want %v", got, lo+5*PageSize)
	}
	if _, err := e.FindUnusedRange(lo, lo+2*PageSize, 1); err == nil {
		t.Fatal("full window should report no gap")
	}
}

func TestGuestSpaceEnforcesEPT(t *testing.T) {
	phys := NewPhysMem()
	a := phys.NewAllocator("ram", 0, 16*PageSize)
	spa, _ := a.AllocPage()
	ept := NewEPT()
	if err := ept.Map(0x5000, spa, PermRead); err != nil {
		t.Fatal(err)
	}
	s := &GuestSpace{Phys: phys, EPT: ept}
	if err := s.Write(0x5000, []byte{1}); err == nil {
		t.Fatal("write through read-only EPT mapping should fail")
	}
	if err := ept.SetPerm(0x5000, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(0x5010, 42); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(0x5010)
	if err != nil || v != 42 {
		t.Fatalf("roundtrip via guest space: v=%d err=%v", v, err)
	}
}

func TestGuestSpaceCrossPage(t *testing.T) {
	phys := NewPhysMem()
	a := phys.NewAllocator("ram", 0, 16*PageSize)
	spa1, _ := a.AllocPage()
	// A hole, then the next backing frame — guest-contiguous pages need not
	// be system-contiguous (§5.2: translation must be per page).
	if _, err := a.AllocPage(); err != nil {
		t.Fatal(err)
	}
	spa2, _ := a.AllocPage()
	ept := NewEPT()
	if err := ept.Map(0x10000, spa1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := ept.Map(0x11000, spa2, PermRW); err != nil {
		t.Fatal(err)
	}
	s := &GuestSpace{Phys: phys, EPT: ept}
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.Write(0x10F00, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 300)
	if err := s.Read(0x10F00, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	// Verify the split actually landed in two discontiguous frames.
	var b1 [1]byte
	if err := phys.Read(spa1+0xF00, b1[:]); err != nil || b1[0] != 0 {
		t.Fatalf("first frame byte = %d err=%v", b1[0], err)
	}
	if err := phys.Read(spa2, b1[:]); err != nil || b1[0] != 0 {
		t.Fatalf("second frame byte = %d err=%v", b1[0], err)
	}
}

// eptModel is the per-page reference the run-based EPT must agree with.
type eptModel map[uint64]struct {
	spa  SysPhys
	perm Perm
}

func (m eptModel) mapRange(f uint64, spa SysPhys, n int, perm Perm) error {
	for i := uint64(0); i < uint64(n); i++ {
		if _, ok := m[f+i]; ok {
			return fmt.Errorf("ept: %v already mapped", GuestPhys((f+i)<<PageShift))
		}
	}
	for i := uint64(0); i < uint64(n); i++ {
		m[f+i] = struct {
			spa  SysPhys
			perm Perm
		}{spa + SysPhys(i<<PageShift), perm}
	}
	return nil
}

func (m eptModel) findUnused(lo, hi uint64, n int) (GuestPhys, bool) {
	run, start := 0, lo
	for f := lo; f < hi; f++ {
		if _, used := m[f]; used {
			run, start = 0, f+1
			continue
		}
		if run++; run == n {
			return GuestPhys(start << PageShift), true
		}
	}
	return 0, false
}

// checkRuns verifies the representation: runs sorted, disjoint, non-empty,
// no two neighbours that should have merged, and pages the sum of run sizes.
func checkRuns(t *testing.T, e *EPT) {
	t.Helper()
	pages := 0
	for i, r := range e.runs {
		if r.n == 0 {
			t.Fatalf("run %d is empty: %+v", i, e.runs)
		}
		if i > 0 {
			prev := e.runs[i-1]
			if prev.gfn+prev.n > r.gfn {
				t.Fatalf("runs %d and %d overlap or are unsorted: %+v", i-1, i, e.runs)
			}
			if prev.joins(r) {
				t.Fatalf("runs %d and %d were not merged: %+v", i-1, i, e.runs)
			}
		}
		pages += int(r.n)
	}
	if pages != e.Count() {
		t.Fatalf("Count() = %d, runs hold %d pages", e.Count(), pages)
	}
}

// Random Map/MapRange/Unmap/SetPerm/FindUnusedRange sequences give the same
// answers — translations, permissions, counts, errors — as a per-page table.
func TestEPTMatchesPerPageModel(t *testing.T) {
	const frames = 96
	perms := []Perm{0, PermRead, PermRW}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, model := NewEPT(), eptModel{}
		changes, wantChanges := 0, 0
		e.OnChange = func() { changes++ }
		// Two backing offsets, so neighbours are often but not always
		// system-contiguous and runs both merge and stay apart.
		spaOf := func(f uint64) SysPhys {
			return SysPhys((f + uint64(rng.Intn(2))*1000) << PageShift)
		}
		for op := 0; op < 300; op++ {
			f := uint64(rng.Intn(frames))
			gpa := GuestPhys(f << PageShift)
			var got, want error
			switch k := rng.Intn(10); {
			case k < 3:
				n, spa, perm := 1+rng.Intn(12), spaOf(f), perms[rng.Intn(3)]
				got, want = e.MapRange(gpa, spa, n, perm), model.mapRange(f, spa, n, perm)
			case k < 4:
				spa, perm := spaOf(f), perms[rng.Intn(3)]
				got, want = e.Map(gpa, spa, perm), model.mapRange(f, spa, 1, perm)
			case k < 6:
				got = e.Unmap(gpa)
				if _, ok := model[f]; ok {
					delete(model, f)
				} else {
					want = fmt.Errorf("ept: unmap of unmapped %v", gpa)
				}
			case k < 8:
				perm := perms[rng.Intn(3)]
				got = e.SetPerm(gpa, perm)
				if ent, ok := model[f]; ok {
					ent.perm = perm
					model[f] = ent
				} else {
					want = fmt.Errorf("ept: SetPerm of unmapped %v", gpa)
				}
			default:
				lo := uint64(rng.Intn(frames))
				hi := lo + uint64(rng.Intn(frames))
				n := 1 + rng.Intn(10)
				gotGPA, err := e.FindUnusedRange(GuestPhys(lo<<PageShift), GuestPhys(hi<<PageShift), n)
				wantGPA, ok := model.findUnused(lo, hi, n)
				if (err == nil) != ok || gotGPA != wantGPA {
					t.Fatalf("seed %d op %d: FindUnusedRange(%d, %d, %d) = %v, %v; model %v, %v",
						seed, op, lo, hi, n, gotGPA, err, wantGPA, ok)
				}
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d op %d: error %v, model %v", seed, op, got, want)
			}
			if got == nil {
				wantChanges++
			}
			if changes != wantChanges {
				t.Fatalf("seed %d op %d: OnChange fired %d times, want %d", seed, op, changes, wantChanges)
			}
			checkRuns(t, e)
			if e.Count() != len(model) {
				t.Fatalf("seed %d op %d: Count() = %d, model %d", seed, op, e.Count(), len(model))
			}
			for g := uint64(0); g < frames+16; g++ {
				addr := GuestPhys(g<<PageShift | 0x123)
				ent, ok := model[g]
				spa, perm, lok := e.Lookup(addr)
				if lok != ok || spa != ent.spa || perm != ent.perm || e.Mapped(addr) != ok {
					t.Fatalf("seed %d op %d: Lookup(%v) = %v %v %v, model %v %v %v",
						seed, op, addr, spa, perm, lok, ent.spa, ent.perm, ok)
				}
				for _, access := range []Perm{0, PermRead, PermWrite} {
					tspa, err := e.Translate(addr, access)
					var got, want EPTViolation
					if err != nil {
						got = *err.(*EPTViolation)
					}
					switch {
					case !ok:
						want = EPTViolation{GPA: addr, Access: access}
					case !ent.perm.Allows(access):
						want = EPTViolation{GPA: addr, Access: access, Allowed: ent.perm, Mapped: true}
					}
					if got != want || (err == nil) != (want == EPTViolation{}) || (err == nil && tspa != ent.spa+0x123) {
						t.Fatalf("seed %d op %d: Translate(%v, %v) = %v, %v; model %+v",
							seed, op, addr, access, tspa, err, want)
					}
				}
			}
		}
	}
}

// Unmapping and re-permissioning a page in the middle of a run leave both
// neighbours translating to their own frames; restoring the permission
// merges the run back into one.
func TestEPTSplitMidRun(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x10000, 0x400000, 8, PermRW); err != nil {
		t.Fatal(err)
	}
	check := func(gpa GuestPhys, want SysPhys) {
		t.Helper()
		got, err := e.Translate(gpa+0x10, PermRW)
		if err != nil || got != want+0x10 {
			t.Fatalf("Translate(%v) = %v, %v; want %v", gpa, got, err, want+0x10)
		}
	}
	if err := e.SetPerm(0x13000, PermRead); err != nil {
		t.Fatal(err)
	}
	if len(e.runs) != 3 {
		t.Fatalf("SetPerm mid-run left %d runs, want 3", len(e.runs))
	}
	check(0x12000, 0x402000)
	check(0x14000, 0x404000)
	if _, err := e.Translate(0x13000, PermWrite); err == nil {
		t.Fatal("write through a read-only page in a split run succeeded")
	}
	if err := e.SetPerm(0x13000, PermRW); err != nil {
		t.Fatal(err)
	}
	if len(e.runs) != 1 {
		t.Fatalf("restoring the permission left %d runs, want 1", len(e.runs))
	}
	if err := e.Unmap(0x15000); err != nil {
		t.Fatal(err)
	}
	check(0x14000, 0x404000)
	check(0x16000, 0x406000)
	if e.Mapped(0x15000) || e.Count() != 7 {
		t.Fatalf("after Unmap: mapped=%v count=%d", e.Mapped(0x15000), e.Count())
	}
	if got, err := e.FindUnusedRange(0x10000, 0x20000, 1); err != nil || got != 0x15000 {
		t.Fatalf("FindUnusedRange = %v, %v; want the hole at gpa:0x15000", got, err)
	}
}

// OnChange fires once per call, however many pages the call maps.
func TestEPTOnChangeOncePerMapRange(t *testing.T) {
	e := NewEPT()
	n := 0
	e.OnChange = func() { n++ }
	if err := e.MapRange(0, 0x400000, 4096, PermRW); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("OnChange fired %d times for one MapRange, want 1", n)
	}
	if err := e.MapRange(0x1000, 0x900000, 2, PermRW); err == nil {
		t.Fatal("MapRange over a mapped page succeeded")
	}
	if n != 1 {
		t.Fatalf("a failed MapRange fired OnChange")
	}
}

// Every successful mutating call advances the generation, and a failed one
// leaves it alone, so a translation kept at one generation is current until
// the generation moves.
func TestEPTGenerationAdvancesOnEveryChange(t *testing.T) {
	e := NewEPT()
	steps := []struct {
		name string
		call func() error
		ok   bool
	}{
		{"MapRange", func() error { return e.MapRange(0, 0x400000, 4, PermRW) }, true},
		{"Map", func() error { return e.Map(0x8000, 0x900000, PermRead) }, true},
		{"SetPerm", func() error { return e.SetPerm(0x1000, PermRead) }, true},
		{"SetPerm unchanged", func() error { return e.SetPerm(0x1000, PermRead) }, true},
		{"Unmap", func() error { return e.Unmap(0x2000) }, true},
		{"Map over a mapping", func() error { return e.Map(0, 0x900000, PermRW) }, false},
		{"Unmap unmapped", func() error { return e.Unmap(0x2000) }, false},
		{"SetPerm unmapped", func() error { return e.SetPerm(0x2000, PermRW) }, false},
	}
	for _, s := range steps {
		before := e.Generation()
		err := s.call()
		if (err == nil) != s.ok {
			t.Fatalf("%s: err = %v, want success %v", s.name, err, s.ok)
		}
		if moved := e.Generation() != before; moved != s.ok {
			t.Fatalf("%s: generation moved = %v, want %v", s.name, moved, s.ok)
		}
	}
}
