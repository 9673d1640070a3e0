package iommu

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"paradice/internal/mem"
)

func TestMapRangeTranslate(t *testing.T) {
	d := NewDomain("nic")
	if err := d.MapRange(0x10000, 0x400000, 4, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	spa, err := d.Translate(0x12345, mem.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if spa != 0x402345 {
		t.Fatalf("Translate = %v, want spa:0x402345", spa)
	}
}

func TestUnmappedDMAFaults(t *testing.T) {
	d := NewDomain("nic")
	_, err := d.Translate(0x99000, mem.PermRead)
	var f *DMAFault
	if !errors.As(err, &f) || f.Mapped {
		t.Fatalf("err = %v, want unmapped DMAFault", err)
	}
}

func TestPermissionDenied(t *testing.T) {
	d := NewDomain("gpu")
	// Write-only-for-device emulation (§5.3 change iv): the buffer is
	// read-only to the device through the IOMMU.
	if err := d.AddPage(RegionGlobal, 0x10000, 0x400000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Translate(0x10000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	_, err := d.Translate(0x10000, mem.PermWrite)
	var f *DMAFault
	if !errors.As(err, &f) || !f.Mapped {
		t.Fatalf("err = %v, want mapped DMAFault", err)
	}
}

func TestRegionSwitchExclusivity(t *testing.T) {
	d := NewDomain("gpu")
	if err := d.AddPage(1, 0x10000, 0x400000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPage(2, 0x20000, 0x500000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	// Nothing live yet: neither region is active.
	if _, err := d.Translate(0x10000, mem.PermRead); err == nil {
		t.Fatal("region-1 page live before switch")
	}
	if err := d.Switch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Translate(0x10000, mem.PermRead); err != nil {
		t.Fatalf("region-1 page not live after switch: %v", err)
	}
	if _, err := d.Translate(0x20000, mem.PermRead); err == nil {
		t.Fatal("region-2 page live while region 1 active — device can cross regions")
	}
	if err := d.Switch(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Translate(0x10000, mem.PermRead); err == nil {
		t.Fatal("region-1 page still live after switch away")
	}
	if _, err := d.Translate(0x20000, mem.PermRead); err != nil {
		t.Fatalf("region-2 page not live: %v", err)
	}
}

func TestGlobalRegionSurvivesSwitches(t *testing.T) {
	d := NewDomain("gpu")
	if err := d.AddPage(RegionGlobal, 0x30000, 0x600000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPage(1, 0x10000, 0x400000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RegionID{1, RegionGlobal, 1} {
		if err := d.Switch(r); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Translate(0x30000, mem.PermRead); err != nil {
			t.Fatalf("global page lost after switch to %d: %v", r, err)
		}
	}
}

func TestBusFrameUniqueAcrossRegions(t *testing.T) {
	d := NewDomain("gpu")
	if err := d.AddPage(1, 0x10000, 0x400000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPage(2, 0x10000, 0x500000, mem.PermRW); err == nil {
		t.Fatal("same bus frame accepted in two regions")
	}
}

func TestSwitchToUnknownRegionFails(t *testing.T) {
	d := NewDomain("gpu")
	if err := d.Switch(7); err == nil {
		t.Fatal("switch to unknown region succeeded")
	}
}

func TestRemovePage(t *testing.T) {
	d := NewDomain("gpu")
	if err := d.AddPage(RegionGlobal, 0x10000, 0x400000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := d.RemovePage(RegionGlobal, 0x10000); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Translate(0x10000, mem.PermRead); err == nil {
		t.Fatal("page still live after remove")
	}
	if err := d.RemovePage(RegionGlobal, 0x10000); err == nil {
		t.Fatal("double remove should fail")
	}
}

func TestDMAReadWrite(t *testing.T) {
	phys := mem.NewPhysMem()
	a := phys.NewAllocator("ram", 0x400000, 8*mem.PageSize)
	spa, _ := a.AllocPages(2)
	d := NewDomain("nic")
	if err := d.MapRange(0x10000, spa, 2, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	dma := &DMA{Dom: d, Phys: phys}
	data := make([]byte, mem.PageSize+100) // crosses the page boundary
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := dma.Write(0x10800, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := dma.Read(0x10800, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if err := dma.WriteU32(0x10008, 77); err != nil {
		t.Fatal(err)
	}
	var w [4]byte
	if err := dma.Read(0x10008, w[:]); err != nil || binary.LittleEndian.Uint32(w[:]) != 77 {
		t.Fatalf("U32 = %d, %v", binary.LittleEndian.Uint32(w[:]), err)
	}
}

func TestDMAStopsAtRegionEdge(t *testing.T) {
	phys := mem.NewPhysMem()
	a := phys.NewAllocator("ram", 0x400000, 8*mem.PageSize)
	spa, _ := a.AllocPages(2)
	d := NewDomain("gpu")
	if err := d.AddPage(1, 0x10000, spa, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := d.Switch(1); err != nil {
		t.Fatal(err)
	}
	dma := &DMA{Dom: d, Phys: phys}
	// A DMA that starts inside the region but runs off its edge must fault.
	err := dma.Write(0x10F00, make([]byte, 512))
	var f *DMAFault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want DMAFault at the region edge", err)
	}
}

// MapRange installs one RegionGlobal run. Its frames behave like pages added
// one by one: AddPage collides with them, RemovePage carves them out,
// Translate works up to both edges, and LivePages counts them.
func TestMapRangeSpanBehavesPerPage(t *testing.T) {
	d := NewDomain("gpu")
	const base, spa, n = BusAddr(0x100000), mem.SysPhys(0x4000000), 16
	if err := d.MapRange(base, spa, n, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if got := d.LivePages(); got != n {
		t.Fatalf("LivePages = %d, want %d", got, n)
	}
	last := base + (n-1)*mem.PageSize
	for bus, want := range map[BusAddr]mem.SysPhys{
		base:                  spa,
		last + 0xFFF:          spa + (n-1)*mem.PageSize + 0xFFF,
		base + 5*mem.PageSize: spa + 5*mem.PageSize,
	} {
		if got, err := d.Translate(bus, mem.PermWrite); err != nil || got != want {
			t.Fatalf("Translate(%#x) = %v, %v; want %v", uint64(bus), got, err, want)
		}
	}
	for _, bus := range []BusAddr{base - 1, last + mem.PageSize} {
		var f *DMAFault
		if _, err := d.Translate(bus, mem.PermRead); !errors.As(err, &f) || f.Mapped {
			t.Fatalf("Translate(%#x) past the span edge: err = %v, want unmapped DMAFault", uint64(bus), err)
		}
	}
	for _, region := range []RegionID{RegionGlobal, 3} {
		err := d.AddPage(region, base+2*mem.PageSize, 0x900000, mem.PermRW)
		if err == nil || !strings.Contains(err.Error(), "already mapped in region 0") {
			t.Fatalf("AddPage(region %d) into the span: err = %v, want already mapped in region 0", region, err)
		}
	}

	// Carve pages 4, 9 and 10 with RemovePage.
	if err := d.RemovePage(RegionGlobal, base+4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := d.RemovePage(RegionGlobal, base+4*mem.PageSize); err == nil {
		t.Fatal("second RemovePage of a carved span page succeeded")
	}
	for _, i := range []BusAddr{9, 10} {
		if err := d.RemovePage(RegionGlobal, base+i*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.LivePages(); got != n-3 {
		t.Fatalf("LivePages after carving 3 pages = %d, want %d", got, n-3)
	}
	for i := 0; i < n; i++ {
		bus := base + BusAddr(i*mem.PageSize)
		got, err := d.Translate(bus, mem.PermRead)
		if carved := i == 4 || i == 9 || i == 10; carved {
			if err == nil {
				t.Fatalf("carved page %d still translates", i)
			}
		} else if err != nil || got != spa+mem.SysPhys(i*mem.PageSize) {
			t.Fatalf("page %d: Translate = %v, %v; want %v", i, got, err, spa+mem.SysPhys(i*mem.PageSize))
		}
	}
	// A carved frame is free again.
	if err := d.AddPage(1, base+4*mem.PageSize, 0x900000, mem.PermRW); err != nil {
		t.Fatalf("AddPage into a carved frame: %v", err)
	}
	// Another region cannot remove a span page.
	if err := d.RemovePage(1, base); err == nil {
		t.Fatal("RemovePage(region 1) of a span page succeeded")
	}
	// A region switch leaves the span live.
	if err := d.Switch(1); err != nil {
		t.Fatal(err)
	}
	if got := d.LivePages(); got != n-2 {
		t.Fatalf("LivePages with region 1 active = %d, want %d", got, n-2)
	}
	if _, err := d.Translate(base, mem.PermWrite); err != nil {
		t.Fatalf("span evicted by a region switch: %v", err)
	}
}

// MapRange over a staged page fails without installing anything.
func TestMapRangeCollisionInstallsNothing(t *testing.T) {
	d := NewDomain("gpu")
	if err := d.AddPage(2, 0x13000, 0x900000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	err := d.MapRange(0x10000, 0x400000, 8, mem.PermRW)
	if err == nil || !strings.Contains(err.Error(), "bus:0x13000 already mapped in region 2") {
		t.Fatalf("err = %v, want bus:0x13000 already mapped in region 2", err)
	}
	if _, err := d.Translate(0x10000, mem.PermRead); err == nil {
		t.Fatal("failed MapRange left a mapping behind")
	}
	if err := d.MapRange(0x20000, 0x400000, 8, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := d.MapRange(0x24000, 0x500000, 8, mem.PermRW); err == nil {
		t.Fatal("overlapping MapRange succeeded")
	}
}
