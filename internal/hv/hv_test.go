package hv

import (
	"bytes"
	"strings"
	"testing"

	"paradice/internal/grant"
	"paradice/internal/iommu"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// guestRig is a minimal guest: a VM, a frame allocator over its RAM, a
// process page table, and a registered grant table page.
type guestRig struct {
	vm     *VM
	next   mem.GuestPhys
	pt     *mem.PageTable
	grants *grant.Table
}

func newGuestRig(t testing.TB, h *Hypervisor, name string) *guestRig {
	t.Helper()
	vm, err := h.CreateVM(name, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	g := &guestRig{vm: vm}
	alloc := func() (mem.GuestPhys, error) {
		gpa := g.next
		g.next += mem.PageSize
		if uint64(gpa) >= vm.RAM {
			t.Fatal("guest rig out of RAM")
		}
		var zero [mem.PageSize]byte
		return gpa, vm.Space.Write(gpa, zero[:])
	}
	pt, err := mem.NewPageTable(vm.Space, alloc)
	if err != nil {
		t.Fatal(err)
	}
	g.pt = pt
	grantGPA, _ := alloc()
	if err := h.RegisterGrantTable(vm, grantGPA); err != nil {
		t.Fatal(err)
	}
	g.grants = grant.NewTable(&grant.GuestAccessor{Space: vm.Space, GPA: grantGPA})
	return g
}

// mapUserPage backs a user VA with a fresh guest frame.
func (g *guestRig) mapUserPage(t testing.TB, va mem.GuestVirt) mem.GuestPhys {
	t.Helper()
	gpa := g.next
	g.next += mem.PageSize
	if err := g.pt.Map(va, gpa, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	return gpa
}

func (g *guestRig) user() *mem.VirtSpace {
	return &mem.VirtSpace{PT: g.pt, Space: g.vm.Space}
}

func TestCreateVMBacksRAM(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	vm, err := h.CreateVM("g1", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Space.WriteU64(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	v, err := vm.Space.ReadU64(0x1000)
	if err != nil || v != 42 {
		t.Fatalf("RAM roundtrip: %d, %v", v, err)
	}
	// Past end of RAM: unmapped.
	if err := vm.Space.WriteU64(mem.GuestPhys(vm.RAM), 1); err == nil {
		t.Fatal("write past RAM end succeeded")
	}
}

// Guest RAM is backed on first touch, and the first touch is free in
// virtual time: a copy from a never-written page reads zeros and takes
// exactly as long as the same copy once the page is backed.
func TestLazyGuestRAMFirstTouchIsFree(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, 64<<20)
	g := newGuestRig(t, h, "guest")
	va := mem.GuestVirt(0x40000000)
	g.mapUserPage(t, va)
	ref, err := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindCopyFrom, VA: va, Len: mem.PageSize}})
	if err != nil {
		t.Fatal(err)
	}
	var took [2]sim.Duration
	env.RunFunc("copier", func(p *sim.Proc) {
		for i := range took {
			buf := bytes.Repeat([]byte{0xAA}, mem.PageSize)
			start := p.Now()
			if err := h.CopyFromGuest(g.vm, ref, va, buf); err != nil {
				t.Error(err)
				return
			}
			took[i] = p.Now().Sub(start)
			if !bytes.Equal(buf, make([]byte, mem.PageSize)) {
				t.Errorf("copy %d of an untouched guest page is not all zeros", i)
			}
		}
	})
	if took[0] == 0 || took[0] != took[1] {
		t.Fatalf("first-touch copy took %v, backed copy %v; want equal and nonzero", took[0], took[1])
	}
}

func TestInterruptDeliveryLatency(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, 64<<20)
	vm, _ := h.CreateVM("g1", 4<<20)
	var firedAt sim.Time = -1
	vm.RegisterISR(1, func() { firedAt = env.Now() })
	env.RunFunc("sender", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		h.SendInterrupt(vm, 1)
	})
	want := sim.Time(10 * sim.Microsecond).Add(16*sim.Microsecond + 400*sim.Nanosecond)
	if firedAt != want {
		t.Fatalf("ISR at %v, want %v", firedAt, want)
	}
	// Unregistered vector: no panic.
	h.SendInterrupt(vm, 99)
	env.Run()
}

func TestSharePageBothSidesSeeBytes(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	a, _ := h.CreateVM("a", 4<<20)
	b, _ := h.CreateVM("b", 4<<20)
	ownGPA := mem.GuestPhys(0x3000)
	peerGPA, err := h.SharePage(a, ownGPA, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Space.Write(ownGPA+8, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := b.Space.Read(peerGPA+8, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("peer read %q", got)
	}
	if err := b.Space.Write(peerGPA+100, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if err := a.Space.Read(ownGPA+100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pong" {
		t.Fatalf("owner read %q", got)
	}
}

func TestCopyToGuestValidated(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	drv, _ := h.CreateVM("driver", 4<<20)
	_ = drv
	va := mem.GuestVirt(0x40000000)
	g.mapUserPage(t, va)
	ref, err := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindCopyTo, VA: va, Len: 128}})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("driver data for the guest")
	if err := h.CopyToGuest(g.vm, ref, va+4, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := g.user().Read(va+4, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("guest sees %q", got)
	}
}

// TestGrantAccessorPerVM: every validation against one guest reads through
// the accessor made when its grant table was registered.
func TestGrantAccessorPerVM(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	first, err := g.vm.grantAccessor()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if acc, _ := g.vm.grantAccessor(); acc != first {
			t.Fatal("grantAccessor returned a fresh accessor")
		}
	})
	if allocs != 0 {
		t.Fatalf("grantAccessor allocates %v times per call, want 0", allocs)
	}
	bare, _ := h.CreateVM("bare", 4<<20)
	if _, err := bare.grantAccessor(); err == nil {
		t.Fatal("grantAccessor succeeded for a VM with no registered grant table")
	}
}

func TestCopyFromGuestValidated(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	va := mem.GuestVirt(0x40000000)
	g.mapUserPage(t, va)
	if err := g.user().Write(va, []byte("app ioctl struct")); err != nil {
		t.Fatal(err)
	}
	ref, _ := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindCopyFrom, VA: va, Len: 64}})
	buf := make([]byte, 16)
	if err := h.CopyFromGuest(g.vm, ref, va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "app ioctl struct" {
		t.Fatalf("driver got %q", buf)
	}
}

// The strict runtime checks of §4.1: a compromised driver VM asking to
// write outside the declared range — e.g. into guest kernel memory — is
// refused.
func TestCompromisedDriverCopyRejected(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	va := mem.GuestVirt(0x40000000)
	g.mapUserPage(t, va)
	g.mapUserPage(t, 0x40001000) // adjacent page: mapped but not granted
	ref, _ := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindCopyTo, VA: va, Len: 256}})
	attacks := []struct {
		name string
		err  error
	}{
		{"overflow past grant", h.CopyToGuest(g.vm, ref, va+200, make([]byte, 100))},
		{"different page", h.CopyToGuest(g.vm, ref, 0x40001000, make([]byte, 8))},
		{"wrong direction", h.CopyFromGuest(g.vm, ref, va, make([]byte, 8))},
		{"forged ref", h.CopyToGuest(g.vm, ref+7, va, make([]byte, 8))},
	}
	for _, a := range attacks {
		if a.err == nil {
			t.Errorf("%s: succeeded, want denial", a.name)
		}
	}
	// The legitimate operation still works.
	if err := h.CopyToGuest(g.vm, ref, va, make([]byte, 256)); err != nil {
		t.Fatalf("legitimate copy rejected: %v", err)
	}
}

func TestMapToGuestAndUnmap(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	drv, _ := h.CreateVM("driver", 4<<20)
	// Driver-side page with a marker.
	pfn := mem.GuestPhys(0x5000)
	if err := drv.Space.Write(pfn, []byte("mapped straight from the driver VM")); err != nil {
		t.Fatal(err)
	}
	va := mem.GuestVirt(0x50000000)
	// The CVD frontend pre-creates intermediate levels (§5.2).
	if err := g.pt.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	ref, _ := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindMapPage, VA: va, Len: mem.PageSize}})
	if err := h.MapToGuest(g.vm, ref, va, drv, pfn); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 34)
	if err := g.user().Read(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "mapped straight from the driver VM" {
		t.Fatalf("guest sees %q", got)
	}
	// Guest writes flow back to the same physical page.
	if err := g.user().Write(va+100, []byte("guest-write")); err != nil {
		t.Fatal(err)
	}
	check := make([]byte, 11)
	if err := drv.Space.Read(pfn+100, check); err != nil {
		t.Fatal(err)
	}
	if string(check) != "guest-write" {
		t.Fatalf("driver sees %q", check)
	}
	// Unmap: guest kernel clears its PT first, then the driver informs the
	// hypervisor, which destroys only the EPT entry.
	if err := g.pt.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if err := h.UnmapFromGuest(g.vm, ref, va); err != nil {
		t.Fatal(err)
	}
	if err := g.user().Read(va, got); err == nil {
		t.Fatal("read after unmap succeeded")
	}
	if err := h.UnmapFromGuest(g.vm, ref, va); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestMapToGuestRequiresIntermediates(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	drv, _ := h.CreateVM("driver", 4<<20)
	va := mem.GuestVirt(0x60000000)
	ref, _ := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindMapPage, VA: va, Len: mem.PageSize}})
	// Without EnsureIntermediates the hypervisor must refuse (it only ever
	// fixes the last level) and must roll its EPT entry back.
	before := g.vm.EPT.Count()
	if err := h.MapToGuest(g.vm, ref, va, drv, 0x5000); err == nil {
		t.Fatal("map without intermediates succeeded")
	}
	if g.vm.EPT.Count() != before {
		t.Fatal("failed map leaked an EPT entry")
	}
}

func TestMapToGuestUngrantedRejected(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	drv, _ := h.CreateVM("driver", 4<<20)
	va := mem.GuestVirt(0x60000000)
	if err := g.pt.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	ref, _ := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: grant.KindMapPage, VA: va, Len: mem.PageSize}})
	// A compromised driver VM tries to map over a different VA (e.g. the
	// guest kernel's memory).
	if err := h.MapToGuest(g.vm, ref, va+mem.PageSize, drv, 0x5000); err == nil {
		t.Fatal("out-of-grant map succeeded")
	}
}

func TestProtectedRegionLifecycle(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	drv, _ := h.CreateVM("driver", 4<<20)
	dom := iommu.NewDomain("gpu")
	region := h.CreateRegion(g.vm)
	pfn := mem.GuestPhys(0x8000)
	// Driver still owns the page: write something first.
	if err := drv.Space.Write(pfn, []byte("secret texture")); err != nil {
		t.Fatal(err)
	}
	if err := h.RegionAddSysPage(dom, region, drv, pfn); err != nil {
		t.Fatal(err)
	}
	// The driver VM CPU can no longer read it (§4.2 attack two).
	if err := drv.Space.Read(pfn, make([]byte, 4)); err == nil {
		t.Fatal("driver VM read protected page")
	}
	if err := drv.Space.Write(pfn, []byte{1}); err == nil {
		t.Fatal("driver VM wrote protected page")
	}
	// The device reaches it only while the region is active (attack three).
	if _, err := dom.Translate(iommu.BusAddr(pfn), mem.PermRead); err == nil {
		t.Fatal("device reached region page before switch")
	}
	if err := h.RegionSwitch(dom, region); err != nil {
		t.Fatal(err)
	}
	spa, err := dom.Translate(iommu.BusAddr(pfn), mem.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 14)
	if err := h.Phys.Read(spa, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "secret texture" {
		t.Fatalf("device DMA sees %q", got)
	}
	// Removing the page zeroes it and restores driver access.
	if err := h.RegionRemoveSysPage(dom, region, drv, pfn); err != nil {
		t.Fatal(err)
	}
	if err := drv.Space.Read(pfn, got); err != nil {
		t.Fatalf("driver access not restored: %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("page not zeroed before release")
		}
	}
}

// Attack one of §4.2: the malicious guest cannot use the hypervisor API to
// reach a protected region owned by another guest.
func TestRegionOwnershipEnforcedOnMap(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	victim := newGuestRig(t, h, "victim")
	attacker := newGuestRig(t, h, "attacker")
	drv, _ := h.CreateVM("driver", 4<<20)
	dom := iommu.NewDomain("gpu")
	region := h.CreateRegion(victim.vm)
	pfn := mem.GuestPhys(0x8000)
	if err := h.RegionAddSysPage(dom, region, drv, pfn); err != nil {
		t.Fatal(err)
	}
	// The compromised driver VM tries to map the victim's page into the
	// attacker (with a perfectly valid grant from the attacker's side).
	va := mem.GuestVirt(0x50000000)
	if err := attacker.pt.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	ref, _ := attacker.grants.Declare(attacker.pt.Root(), []grant.Op{{Kind: grant.KindMapPage, VA: va, Len: mem.PageSize}})
	err := h.MapToGuest(attacker.vm, ref, va, drv, pfn)
	if err == nil || !strings.Contains(err.Error(), "protected region") {
		t.Fatalf("cross-guest map: err = %v, want protected-region denial", err)
	}
	// Mapping into the owner works.
	if err := victim.pt.EnsureIntermediates(va); err != nil {
		t.Fatal(err)
	}
	vref, _ := victim.grants.Declare(victim.pt.Root(), []grant.Op{{Kind: grant.KindMapPage, VA: va, Len: mem.PageSize}})
	if err := h.MapToGuest(victim.vm, vref, va, drv, pfn); err != nil {
		t.Fatalf("owner map failed: %v", err)
	}
}

func TestAssignDeviceMapsBARsAndDMA(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	drv, _ := h.CreateVM("driver", 4<<20)
	// A fake device BAR: two pages of "registers/VRAM".
	barAlloc := h.Phys.NewAllocator("dev-bar", 0x2000_0000, 2*mem.PageSize)
	barBase, _ := barAlloc.AllocPages(2)
	dom, gpas, err := h.AssignDevice(drv, "fakedev", []BAR{{Name: "bar0", SPA: barBase, Size: 2 * mem.PageSize}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gpas) != 1 {
		t.Fatalf("got %d BAR GPAs", len(gpas))
	}
	// Driver VM can touch the BAR through its guest-physical space.
	if err := drv.Space.Write(gpas[0]+16, []byte("reg")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := h.Phys.Read(barBase+16, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "reg" {
		t.Fatalf("BAR write landed as %q", got)
	}
	// Device can DMA anywhere in driver VM RAM (bus = driver GPA).
	dma := &iommu.DMA{Dom: dom, Phys: h.Phys}
	if err := dma.Write(0x1000, []byte("dma!")); err != nil {
		t.Fatal(err)
	}
	if err := drv.Space.Read(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "dma" {
		t.Fatalf("DMA landed as %q", got)
	}
	// But not outside it.
	if err := dma.Write(iommu.BusAddr(drv.RAM), []byte{1}); err == nil {
		t.Fatal("DMA past driver VM RAM succeeded")
	}
}

func TestGate(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := NewGate("gpu-mc")
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	g.Revoke()
	if err := g.Check(); err == nil {
		t.Fatal("revoked gate passed Check")
	}
	ran := false
	h.HypercallAccess(g, func() { ran = true })
	if !ran {
		t.Fatal("hypercall access did not run")
	}
}

func TestDeviceROPageStopsDeviceWrites(t *testing.T) {
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	drv, _ := h.CreateVM("driver", 4<<20)
	dom := iommu.NewDomain("gpu")
	region := h.CreateRegion(g.vm)
	pfn := mem.GuestPhys(0x9000)
	if err := h.RegionAddSysPageDeviceRO(dom, region, drv, pfn); err != nil {
		t.Fatal(err)
	}
	if err := h.RegionSwitch(dom, region); err != nil {
		t.Fatal(err)
	}
	dma := &iommu.DMA{Dom: dom, Phys: h.Phys}
	if err := dma.Read(iommu.BusAddr(pfn), make([]byte, 8)); err != nil {
		t.Fatalf("device read of RO page: %v", err)
	}
	if err := dma.Write(iommu.BusAddr(pfn), make([]byte, 8)); err == nil {
		t.Fatal("device wrote an RO page")
	}
	// The driver VM keeps CPU read/write (emulated write-only semantics).
	if err := drv.Space.WriteU64(pfn, 7); err != nil {
		t.Fatal(err)
	}
}
