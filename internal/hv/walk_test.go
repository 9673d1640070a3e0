package hv

// Equivalence of the page-table walk, which loads each entry straight from
// its table frame, with the walk it replaced, which read each entry as a
// guest-physical word: the same GPAs and the same faults on every table
// layout, hostile ones included, and with the walk's per-level table-frame
// slots warm across EPT and page-table changes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"paradice/internal/grant"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
)

// PAE page-table entry bits, as internal/mem lays them out.
const (
	ptePresent  = 1 << 0
	pteWritable = 1 << 1
	pteAddrMask = ^uint64(mem.PageSize-1) & (1<<52 - 1)
)

// wordWalk is the reference walk: every entry is a GuestSpace.ReadU64 of
// table+index*8, so each one takes the generic guest-physical path (EPT
// translation with read access, then a physical read).
func wordWalk(space *mem.GuestSpace, root mem.GuestPhys, va mem.GuestVirt, access mem.Perm) (mem.GuestPhys, error) {
	table := root
	for _, index := range []uint64{uint64(va) >> 30 & 0x3, uint64(va) >> 21 & 0x1ff} {
		ent, err := space.ReadU64(table + mem.GuestPhys(index*8))
		if err != nil {
			return 0, err
		}
		if ent&ptePresent == 0 {
			return 0, &mem.PageFault{VA: va, Access: access}
		}
		table = mem.GuestPhys(ent & pteAddrMask)
	}
	ent, err := space.ReadU64(table + mem.GuestPhys((uint64(va)>>12&0x1ff)*8))
	if err != nil {
		return 0, err
	}
	if ent&ptePresent == 0 {
		return 0, &mem.PageFault{VA: va, Access: access}
	}
	if access&mem.PermWrite != 0 && ent&pteWritable == 0 {
		return 0, &mem.PageFault{VA: va, Access: access, Present: true}
	}
	return mem.GuestPhys(ent&pteAddrMask) + mem.GuestPhys(mem.PageOffset(uint64(va))), nil
}

// wordCopyTo is CopyToGuest's dormant page loop over the reference walk,
// without the grant check.
func wordCopyTo(h *Hypervisor, vm *VM, root mem.GuestPhys, va mem.GuestVirt, src []byte) error {
	addr := uint64(va)
	for len(src) > 0 {
		gpa, err := wordWalk(vm.Space, root, mem.GuestVirt(addr), mem.PermWrite)
		if err != nil {
			return err
		}
		spa, err := vm.EPT.Translate(gpa, 0)
		if err != nil {
			return err
		}
		n := min(mem.PageSize-mem.PageOffset(addr), uint64(len(src)))
		if err := h.Phys.Write(spa, src[:n]); err != nil {
			return err
		}
		addr += n
		src = src[n:]
	}
	return nil
}

// tablePages returns the guest-physical addresses of every table page under
// root: the PDPT, its page directories and their page tables.
func tablePages(t *testing.T, space *mem.GuestSpace, root mem.GuestPhys) []mem.GuestPhys {
	t.Helper()
	next := func(table mem.GuestPhys, n int) []mem.GuestPhys {
		var out []mem.GuestPhys
		for i := 0; i < n; i++ {
			ent, err := space.ReadU64(table + mem.GuestPhys(i*8))
			if err != nil {
				t.Fatal(err)
			}
			if ent&ptePresent != 0 {
				out = append(out, mem.GuestPhys(ent&pteAddrMask))
			}
		}
		return out
	}
	pages := []mem.GuestPhys{root}
	for _, pd := range next(root, 4) {
		pages = append(append(pages, pd), next(pd, 512)...)
	}
	return pages
}

func TestWalkMatchesWordReadWalk(t *testing.T) {
	t.Run("random-tables", func(t *testing.T) {
		for seed := int64(1); seed <= 30; seed++ {
			checkRandomTables(t, seed)
		}
	})
	t.Run("copy-aliases-page-directory", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			checkAliasedCopy(t, seed)
		}
	})
	t.Run("warm-slots", func(t *testing.T) {
		for seed := int64(1); seed <= 30; seed++ {
			checkWarmSlots(t, seed)
		}
	})
}

// checkWarmSlots walks one table again and again through the same space, so
// the walk's table-frame slots stay warm, and between rounds of walks
// changes what they remember: it unmaps a table page or changes its EPT
// permission (and restores it), remaps it onto another frame holding an
// edited copy, or edits a PTE in place or through the page table. Every
// walk must match the reference, which resolves every entry afresh.
func checkWarmSlots(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	spare, err := h.CreateVM("spare", 1<<20) // frames a table page is remapped onto
	if err != nil {
		t.Fatal(err)
	}
	nextSpare := mem.GuestPhys(0)
	space, root := g.vm.Space, g.pt.Root()
	ramPage := func() mem.GuestPhys {
		return mem.GuestPhys(rng.Intn(int(g.vm.RAM/mem.PageSize))) << mem.PageShift
	}
	var vas []mem.GuestVirt
	for i := 0; i < 24; i++ {
		va := mem.GuestVirt(rng.Intn(4)<<30 | rng.Intn(3)<<21 | rng.Intn(512)<<12)
		perm := []mem.Perm{mem.PermRW, mem.PermRead}[rng.Intn(2)]
		if g.pt.Map(va, ramPage(), perm) == nil {
			vas = append(vas, va)
		}
	}
	tables := tablePages(t, space, root)
	pt := mem.LoadPageTable(space, root)
	accesses := []mem.Perm{0, mem.PermRead, mem.PermWrite, mem.PermRW}
	walk := func(step int) {
		t.Helper()
		for q := 0; q < 40; q++ {
			va := vas[rng.Intn(len(vas))] + mem.GuestVirt(rng.Intn(mem.PageSize))
			if rng.Intn(4) == 0 {
				va = mem.GuestVirt(rng.Intn(4)<<30 | rng.Intn(512)<<21 | rng.Intn(512)<<12)
			}
			access := accesses[rng.Intn(len(accesses))]
			got, err := pt.Walk(va, access)
			want, wantErr := wordWalk(space, root, va, access)
			if got != want || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("seed %d step %d: warm Walk(%v, %v) = %v, %#v; word-read walk %v, %#v",
					seed, step, va, access, got, err, want, wantErr)
			}
		}
	}
	walk(-1)
	for step := 0; step < 60; step++ {
		table := tables[rng.Intn(len(tables))]
		spa, perm, mapped := g.vm.EPT.Lookup(table)
		switch rng.Intn(5) {
		case 0: // unmap, walk, map back
			if !mapped {
				continue
			}
			if err := g.vm.EPT.Unmap(table); err != nil {
				t.Fatal(err)
			}
			walk(step)
			if err := g.vm.EPT.Map(table, spa, perm); err != nil {
				t.Fatal(err)
			}
		case 1: // strip permissions, walk, restore
			if !mapped {
				continue
			}
			if err := g.vm.EPT.SetPerm(table, []mem.Perm{0, mem.PermWrite, mem.PermRead}[rng.Intn(3)]); err != nil {
				t.Fatal(err)
			}
			walk(step)
			if err := g.vm.EPT.SetPerm(table, perm); err != nil {
				t.Fatal(err)
			}
		case 2: // remap onto a spare frame holding a copy whose present entries moved
			if !mapped {
				continue
			}
			var pg [mem.PageSize]byte
			if err := h.Phys.Read(spa, pg[:]); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < mem.PageSize; off += 8 {
				if ent := binary.LittleEndian.Uint64(pg[off:]); ent&ptePresent != 0 {
					binary.LittleEndian.PutUint64(pg[off:], ent+mem.PageSize)
				}
			}
			to, _, ok := spare.EPT.Lookup(nextSpare)
			if !ok {
				t.Fatal("spare VM out of frames")
			}
			nextSpare += mem.PageSize
			if err := h.Phys.Write(to, pg[:]); err != nil {
				t.Fatal(err)
			}
			if err := g.vm.EPT.Unmap(table); err != nil {
				t.Fatal(err)
			}
			if err := g.vm.EPT.Map(table, to, perm); err != nil {
				t.Fatal(err)
			}
		case 3: // rewrite an entry in place, behind the page table's back
			ent := []uint64{0, uint64(ramPage()) | ptePresent, uint64(ramPage()) | ptePresent | pteWritable}[rng.Intn(3)]
			_ = space.WriteU64(table+mem.GuestPhys(rng.Intn(512)*8), ent)
		default: // remap a user page through the page table
			va := vas[rng.Intn(len(vas))]
			if g.pt.Unmap(va) == nil {
				_ = g.pt.Map(va, ramPage(), mem.PermRW)
			}
		}
		walk(step)
	}
}

// checkRandomTables builds a random table, then damages it: absent levels,
// garbage and out-of-RAM entries, table pages whose EPT entry is removed,
// stripped of read permission, or pointed at an unbacked frame. Walks of
// random addresses and accesses, through the table's own root and through
// misaligned roots whose entries straddle a page, must match the reference.
func checkRandomTables(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	space := g.vm.Space
	randVA := func() mem.GuestVirt {
		pd := rng.Intn(4)
		if rng.Intn(4) == 0 {
			pd = rng.Intn(512)
		}
		return mem.GuestVirt(rng.Intn(4)<<30 | pd<<21 | rng.Intn(512)<<12 | rng.Intn(mem.PageSize))
	}
	for i := 0; i < 60; i++ {
		perm := mem.PermRW
		if rng.Intn(2) == 0 {
			perm = mem.PermRead
		}
		va := mem.GuestVirt(mem.PageBase(uint64(randVA())))
		gpa := mem.GuestPhys(rng.Intn(int(g.vm.RAM/mem.PageSize))) << mem.PageShift
		_ = g.pt.Map(va, gpa, perm) // an occupied slot just stays as it is
	}
	tables := tablePages(t, space, g.pt.Root())
	host := h.Phys.Ranges()[0] // host RAM, handed out only as far as the VM
	unbacked := host.Base + mem.SysPhys(host.Size-mem.PageSize)
	// A damage step that finds its table page already unmapped fails and
	// changes nothing.
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		table := tables[rng.Intn(len(tables))]
		switch rng.Intn(5) {
		case 0:
			_ = g.vm.EPT.Unmap(table)
		case 1:
			_ = g.vm.EPT.SetPerm(table, []mem.Perm{0, mem.PermWrite}[rng.Intn(2)])
		case 2:
			if g.vm.EPT.Unmap(table) == nil {
				_ = g.vm.EPT.Map(table, unbacked, mem.PermRW)
			}
		default:
			ent := []uint64{
				0,
				uint64(rng.Intn(int(g.vm.RAM/mem.PageSize)))<<mem.PageShift | ptePresent,
				0x7000_0000 | ptePresent | pteWritable, // outside guest RAM
				rng.Uint64(),
			}[rng.Intn(4)]
			_ = space.WriteU64(table+mem.GuestPhys(rng.Intn(512)*8), ent)
		}
	}
	roots := []mem.GuestPhys{g.pt.Root(), g.pt.Root() + 8, g.pt.Root() + 4090, g.pt.Root() + 4095,
		mem.GuestPhys(rng.Intn(int(g.vm.RAM)))}
	accesses := []mem.Perm{0, mem.PermRead, mem.PermWrite, mem.PermRW}
	for _, root := range roots {
		pt := mem.LoadPageTable(space, root)
		for q := 0; q < 300; q++ {
			va, access := randVA(), accesses[rng.Intn(len(accesses))]
			got, err := pt.Walk(va, access)
			want, wantErr := wordWalk(space, root, va, access)
			if got != want || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("seed %d root %v: Walk(%v, %v) = %v, %#v; word-read walk %v, %#v",
					seed, root, va, access, got, err, want, wantErr)
			}
			if _, err := wordWalk(space, root, va, 0); pt.Mapped(va) != (err == nil) {
				t.Fatalf("seed %d root %v: Mapped(%v) = %v, word-read walk err %v", seed, root, va, pt.Mapped(va), err)
			}
		}
	}
}

// checkAliasedCopy maps a user page onto the guest's own page directory and
// has the driver copy over it and the pages after it, so the first page of
// the copy rewrites the directory entry the later pages are walked through.
// The copy must land the same bytes and end in the same fault as the
// reference loop, which walks every page afresh through word reads.
func checkAliasedCopy(t *testing.T, seed int64) {
	// The copy starts on the last page under directory entry 0, which maps
	// the directory itself; the two pages after it sit under entry 1.
	const va = mem.GuestVirt(0x401FF000)
	rng := rand.New(rand.NewSource(seed))
	off := uint64(rng.Intn(8)) // the copy reaches directory entry 1
	var src []byte
	run := func(copyTo func(h *Hypervisor, g *guestRig, ref uint32, src []byte) error) ([]byte, error) {
		h := New(sim.NewEnv(), 64<<20)
		g := newGuestRig(t, h, "guest")
		g.mapUserPage(t, va+mem.PageSize) // creates the directory
		pdEnt, err := g.vm.Space.ReadU64(g.pt.Root() + 8)
		if err != nil {
			t.Fatal(err)
		}
		pd := mem.GuestPhys(pdEnt & pteAddrMask)
		if err := g.pt.Map(va, pd, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		g.mapUserPage(t, va+2*mem.PageSize)
		// A second table the rewritten entry may point at: it maps the later
		// copy pages onto the PDPT page and onto the grant table page or a
		// page outside guest RAM.
		fake := g.next
		g.next += mem.PageSize
		second := []mem.GuestPhys{0x1000, mem.GuestPhys(g.vm.RAM)}[seed%2]
		for i, target := range []mem.GuestPhys{g.pt.Root(), second} {
			if err := g.vm.Space.WriteU64(fake+mem.GuestPhys(i*8), uint64(target)|ptePresent|pteWritable); err != nil {
				t.Fatal(err)
			}
		}
		if src == nil {
			dir := make([]byte, mem.PageSize)
			if err := g.vm.Space.Read(pd, dir); err != nil {
				t.Fatal(err)
			}
			ent := []uint64{
				binary.LittleEndian.Uint64(dir[8:]), // the real table
				uint64(fake) | ptePresent | pteWritable,
				uint64(fake) | ptePresent,
				0,
				0x7000_0000 | ptePresent, // outside guest RAM
				rng.Uint64(),
			}
			binary.LittleEndian.PutUint64(dir[8:], ent[seed%int64(len(ent))])
			src = make([]byte, 3*mem.PageSize-off)
			rng.Read(src)
			copy(src, dir[off:])
		}
		ref, err := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindCopyTo, VA: va, Len: 3 * mem.PageSize}})
		if err != nil {
			t.Fatal(err)
		}
		copyErr := copyTo(h, g, ref, src)
		ram := make([]byte, g.vm.RAM)
		if err := g.vm.Space.Read(0, ram); err != nil {
			t.Fatal(err)
		}
		return ram, copyErr
	}
	dst := va + mem.GuestVirt(off)
	got, err := run(func(h *Hypervisor, g *guestRig, ref uint32, src []byte) error {
		return h.CopyToGuest(g.vm, ref, dst, src)
	})
	want, wantErr := run(func(h *Hypervisor, g *guestRig, _ uint32, src []byte) error {
		return wordCopyTo(h, g.vm, g.pt.Root(), dst, src)
	})
	if !reflect.DeepEqual(err, wantErr) {
		t.Fatalf("seed %d: CopyToGuest err = %#v, word-read copy %#v", seed, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d: guest RAM after CopyToGuest differs from the word-read copy", seed)
	}
	t.Logf("seed %d: copy ended with %v", seed, err)
}

// TestCopySeesEditsBetweenPages edits the second page's translation while
// one two-page copy is under way: the copy itself rewrites the page's PTE
// through an alias of its page table, or another process rewrites the PTE,
// remaps the page table onto an edited copy or unmaps it from the EPT. The
// walk keeps table frames, never translations, so every page of the copy
// must land where a fresh walk at that page's own walk says: page 1 always
// after the edit, page 0 after it only on the dormant path, which charges
// the whole copy before walking any page. Armed, the edit falls in the
// virtual time pageSPA charges between the two pages.
func TestCopySeesEditsBetweenPages(t *testing.T) {
	const va = mem.GuestVirt(0x40000000) // PTE 0 of its page table; page 1 is PTE 1
	type rig struct {
		h     *Hypervisor
		g     *guestRig
		table mem.GuestPhys // the page table holding both PTEs
		moved mem.GuestPhys // where the edit sends page 1
	}
	// setPTE1 returns a copy of the page table with PTE 1 pointing at gpa.
	setPTE1 := func(r *rig, gpa mem.GuestPhys) []byte {
		pg := make([]byte, mem.PageSize)
		if err := r.g.vm.Space.Read(r.table, pg); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg[8:], uint64(gpa)|ptePresent|pteWritable)
		return pg
	}
	edits := []struct {
		name string
		self bool // the copy makes the edit itself, through page 0
		edit func(t *testing.T, r *rig)
	}{
		{"copy-rewrites-pte", true, nil},
		{"pte-remapped", false, func(t *testing.T, r *rig) {
			if err := r.g.pt.Unmap(va + mem.PageSize); err != nil {
				t.Fatal(err)
			}
			if err := r.g.pt.Map(va+mem.PageSize, r.moved, mem.PermRW); err != nil {
				t.Fatal(err)
			}
		}},
		{"table-remapped", false, func(t *testing.T, r *rig) {
			spare, err := r.h.CreateVM("spare", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			to, _, _ := spare.EPT.Lookup(0)
			if err := r.h.Phys.Write(to, setPTE1(r, r.moved)); err != nil {
				t.Fatal(err)
			}
			if err := r.g.vm.EPT.Unmap(r.table); err != nil {
				t.Fatal(err)
			}
			if err := r.g.vm.EPT.Map(r.table, to, mem.PermRW); err != nil {
				t.Fatal(err)
			}
		}},
		{"table-unmapped", false, func(t *testing.T, r *rig) {
			if err := r.g.vm.EPT.Unmap(r.table); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, e := range edits {
		for _, tlb := range []bool{false, true} {
			env := sim.NewEnv()
			h := New(env, 64<<20)
			if tlb {
				h.EnableTLB()
			}
			r := &rig{h: h, g: newGuestRig(t, h, "guest")}
			r.g.mapUserPage(t, va+mem.PageSize)
			pdEnt, err := r.g.vm.Space.ReadU64(r.g.pt.Root() + 8)
			if err != nil {
				t.Fatal(err)
			}
			ptEnt, err := r.g.vm.Space.ReadU64(mem.GuestPhys(pdEnt & pteAddrMask))
			if err != nil {
				t.Fatal(err)
			}
			r.table = mem.GuestPhys(ptEnt & pteAddrMask)
			// Page 0 of the copy: the page table itself when the copy edits
			// it, a user page otherwise.
			src := make([]byte, 2*mem.PageSize)
			rand.New(rand.NewSource(1)).Read(src)
			dst := va
			if e.self {
				if err := r.g.pt.Map(va, r.table, mem.PermRW); err != nil {
					t.Fatal(err)
				}
				r.moved = r.g.next
				// The copy starts at PTE 1 and keeps every other entry.
				dst = va + 8
				src = src[8:]
				copy(src, setPTE1(r, r.moved)[8:])
			} else {
				r.g.mapUserPage(t, va)
				r.moved = r.g.next
			}
			r.g.next += mem.PageSize
			ref, err := r.g.grants.Declare(r.g.pt.Root(), []grant.Op{{Kind: grant.KindCopyTo, VA: dst, Len: uint64(len(src))}})
			if err != nil {
				t.Fatal(err)
			}
			root := r.g.pt.Root()
			before := [2]mem.GuestPhys{}
			for i := range before {
				if before[i], err = wordWalk(r.g.vm.Space, root, va+mem.GuestVirt(i)*mem.PageSize, mem.PermWrite); err != nil {
					t.Fatal(err)
				}
			}

			var copyErr error
			env.Spawn("copy", func(p *sim.Proc) { copyErr = h.CopyToGuest(r.g.vm, ref, dst, src) })
			if !e.self {
				// Armed, page 1's walk follows a second per-page charge;
				// dormant, every walk follows the one upfront charge.
				env.Spawn("edit", func(p *sim.Proc) {
					p.Sleep(perf.CostGrantDeclare + perf.CostCopyPerPage*3/2)
					e.edit(t, r)
				})
			}
			env.Run()

			// Each page must have landed where a fresh walk at its own walk
			// sends it: after the edit for page 1, and for page 0 too when
			// the copy is dormant and another process made the edit.
			name := fmt.Sprintf("%s tlb=%v", e.name, tlb)
			n0 := mem.PageSize - int(mem.PageOffset(uint64(dst)))
			after := func(page int) (mem.GuestPhys, error) {
				return wordWalk(r.g.vm.Space, root, va+mem.GuestVirt(page)*mem.PageSize, mem.PermWrite)
			}
			dst0, err0 := before[0], error(nil)
			if !tlb && !e.self {
				dst0, err0 = after(0)
			}
			dst1, err1 := after(1)
			wantErr := err0
			if err0 == nil {
				wantErr = err1
			}
			if !reflect.DeepEqual(copyErr, wantErr) {
				t.Fatalf("%s: copy err = %#v, fresh walks say %#v", name, copyErr, wantErr)
			}
			check := func(gpa mem.GuestPhys, b []byte, what string) {
				t.Helper()
				got := make([]byte, len(b))
				if err := r.g.vm.Space.Read(gpa, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, b) {
					t.Fatalf("%s: %s not at %v, where a fresh walk sends it", name, what, gpa)
				}
			}
			if err0 == nil {
				check(dst0+mem.GuestPhys(mem.PageOffset(uint64(dst))), src[:n0], "page 0")
			}
			if err0 == nil && err1 == nil {
				check(dst1, src[n0:], "page 1")
				if dst1 == before[1] {
					t.Fatalf("%s: the edit left page 1 where it was", name)
				}
				check(before[1], make([]byte, mem.PageSize), "the page 1 left behind (zero)")
			}
		}
	}
}
