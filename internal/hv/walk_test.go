package hv

// Equivalence of the page-table walk, which loads each entry straight from
// its table frame, with the walk it replaced, which read each entry as a
// guest-physical word: the same GPAs and the same faults on every table
// layout, hostile ones included.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"paradice/internal/grant"
	"paradice/internal/mem"
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
