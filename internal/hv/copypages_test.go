package hv

import (
	"bytes"
	"errors"
	"testing"

	"paradice/internal/grant"
	"paradice/internal/iommu"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// prefixPath is one caller of mem.PhysMem.CopyPages, set up over a 3-page
// window whose third page faults in that caller's own layer.
type prefixPath struct {
	name  string
	move  func(t *testing.T) func(buf []byte, write bool) error
	isErr func(error) bool
}

func errIs[E error](err error) bool {
	var e E
	return errors.As(err, &e)
}

// twoBackedPages returns physical memory whose first two pages at the
// returned address are backed and whose third is not.
func twoBackedPages() (*mem.PhysMem, mem.SysPhys) {
	phys := mem.NewPhysMem()
	base, _ := phys.NewAllocator("ram", 0x100000, 3*mem.PageSize).AllocPages(2)
	return phys, base
}

// twoPageGuest is a guest with two user pages mapped at the returned VA, the
// third left unmapped, and copy grants both ways over all three.
func twoPageGuest(t *testing.T, tlb bool) (*Hypervisor, *guestRig, mem.GuestVirt, uint32) {
	h := New(sim.NewEnv(), 64<<20)
	if tlb {
		h.EnableTLB()
	}
	g := newGuestRig(t, h, "guest")
	va := mem.GuestVirt(0x40000000)
	g.mapUserPage(t, va)
	g.mapUserPage(t, va+mem.PageSize)
	ref, err := g.grants.Declare(g.pt.Root(), []grant.Op{
		{Kind: grant.KindCopyTo, VA: va, Len: 3 * mem.PageSize},
		{Kind: grant.KindCopyFrom, VA: va, Len: 3 * mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, g, va, ref
}

func guestCopy(tlb bool) func(t *testing.T) func([]byte, bool) error {
	return func(t *testing.T) func([]byte, bool) error {
		h, g, va, ref := twoPageGuest(t, tlb)
		return func(buf []byte, write bool) error {
			if write {
				return h.CopyToGuest(g.vm, ref, va, buf)
			}
			return h.CopyFromGuest(g.vm, ref, va, buf)
		}
	}
}

var prefixPaths = []prefixPath{
	{"PhysMem", func(t *testing.T) func([]byte, bool) error {
		phys, base := twoBackedPages()
		return func(buf []byte, write bool) error {
			if write {
				return phys.Write(base, buf)
			}
			return phys.Read(base, buf)
		}
	}, errIs[*mem.BusError]},
	{"GuestSpace", func(t *testing.T) func([]byte, bool) error {
		phys, base := twoBackedPages()
		s := &mem.GuestSpace{Phys: phys, EPT: mem.NewEPT()}
		if err := s.EPT.MapRange(0x5000, base, 2, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		return func(buf []byte, write bool) error {
			if write {
				return s.Write(0x5000, buf)
			}
			return s.Read(0x5000, buf)
		}
	}, errIs[*mem.EPTViolation]},
	{"VirtSpace", func(t *testing.T) func([]byte, bool) error {
		_, g, va, _ := twoPageGuest(t, false)
		return func(buf []byte, write bool) error {
			if write {
				return g.user().Write(va, buf)
			}
			return g.user().Read(va, buf)
		}
	}, errIs[*mem.PageFault]},
	{"DMA", func(t *testing.T) func([]byte, bool) error {
		phys, base := twoBackedPages()
		dom := iommu.NewDomain("gpu")
		for i := 0; i < 2; i++ {
			off := iommu.BusAddr(i * mem.PageSize)
			if err := dom.AddPage(1, 0x10000+off, base+mem.SysPhys(off), mem.PermRW); err != nil {
				t.Fatal(err)
			}
		}
		if err := dom.Switch(1); err != nil {
			t.Fatal(err)
		}
		dma := &iommu.DMA{Dom: dom, Phys: phys}
		return func(buf []byte, write bool) error {
			if write {
				return dma.Write(0x10000, buf)
			}
			return dma.Read(0x10000, buf)
		}
	}, errIs[*iommu.DMAFault]},
	{"CopyGuestDormant", guestCopy(false), errIs[*mem.PageFault]},
	{"CopyGuestArmed", guestCopy(true), errIs[*mem.PageFault]},
	{"GuestMapping", func(t *testing.T) func([]byte, bool) error {
		h, g, driver, va, ref := bufRig(t, grant.KindCopyTo)
		m, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyTo, va, 3*mem.PageSize, driver)
		if err != nil {
			t.Fatal(err)
		}
		if err := driver.EPT.Unmap(m.base + 2*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		return func(buf []byte, write bool) error { return m.Copy(va, buf, write) }
	}, errIs[*mem.EPTViolation]},
}

// Every path that moves memory a page at a time keeps one contract: a
// 3-page access whose third page faults moves exactly the first two pages,
// in both directions, and returns its own layer's error.
func TestCopyPagesPrefixOnEveryPath(t *testing.T) {
	const n = 3 * mem.PageSize
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	for _, p := range prefixPaths {
		t.Run(p.name, func(t *testing.T) {
			move := p.move(t)
			if err := move(src, true); !p.isErr(err) {
				t.Fatalf("write: err = %T (%v), want the layer's fault", err, err)
			}
			dst := bytes.Repeat([]byte{0xEE}, n)
			if err := move(dst, false); !p.isErr(err) {
				t.Fatalf("read: err = %T (%v), want the layer's fault", err, err)
			}
			if !bytes.Equal(dst[:2*mem.PageSize], src[:2*mem.PageSize]) {
				t.Fatal("the first two pages did not make the round trip")
			}
			if !bytes.Equal(dst[2*mem.PageSize:], bytes.Repeat([]byte{0xEE}, mem.PageSize)) {
				t.Fatal("the read wrote past the faulting page boundary")
			}
		})
	}
}

// hv.copy.bytes and iommu.dma.bytes count the bytes an access moved, not
// the bytes it asked for: a guest copy that faults on its third page adds two
// pages, armed or dormant, and a DMA that runs off its region's edge adds
// only the bytes before the edge.
func TestByteCountersCountBytesMoved(t *testing.T) {
	for _, tlb := range []bool{false, true} {
		h, g, va, ref := twoPageGuest(t, tlb)
		tr := trace.New()
		trace.Install(h.Env, tr)
		if err := h.CopyToGuest(g.vm, ref, va, make([]byte, 3*mem.PageSize)); err == nil {
			t.Fatal("copy across an unmapped page succeeded")
		}
		if got := tr.Metrics().Counter("hv.copy.bytes"); got != 2*mem.PageSize {
			t.Errorf("tlb=%v: hv.copy.bytes = %d, want %d", tlb, got, 2*mem.PageSize)
		}
	}

	env := sim.NewEnv()
	tr := trace.New()
	trace.Install(env, tr)
	phys, base := twoBackedPages()
	dom := iommu.NewDomain("gpu")
	if err := dom.AddPage(1, 0x10000, base, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := dom.Switch(1); err != nil {
		t.Fatal(err)
	}
	dma := &iommu.DMA{Dom: dom, Phys: phys, Env: env}
	if err := dma.Write(0x10F00, make([]byte, 512)); err == nil {
		t.Fatal("DMA past the region edge succeeded")
	}
	if got := tr.Metrics().Counter("iommu.dma.bytes"); got != 0x100 {
		t.Errorf("iommu.dma.bytes = %d, want %d", got, 0x100)
	}
}
