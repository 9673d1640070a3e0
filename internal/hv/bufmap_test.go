package hv

// Tests for MapGuestBuffer / GuestMapping — the grant-map cache's substrate.
// The contract under test: a mapping is validated against the grant table
// exactly like an assisted copy, its EPT permission comes from the grant
// kind, and after Unmap (revocation) every access faults instead of reading
// stale memory.

import (
	"bytes"
	"testing"

	"paradice/internal/grant"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// bufRig maps a 3-page user buffer in a guest and declares one grant over it.
func bufRig(t *testing.T, kind grant.Kind) (*Hypervisor, *guestRig, *VM, mem.GuestVirt, uint32) {
	t.Helper()
	h := New(sim.NewEnv(), 64<<20)
	g := newGuestRig(t, h, "guest")
	driver, err := h.CreateVM("driver", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	va := mem.GuestVirt(0x40000000)
	for i := 0; i < 3; i++ {
		g.mapUserPage(t, va+mem.GuestVirt(i)*mem.PageSize)
	}
	n := uint64(3 * mem.PageSize)
	ref, err := g.grants.Declare(g.pt.Root(), []grant.Op{{Kind: kind, VA: va, Len: n}})
	if err != nil {
		t.Fatal(err)
	}
	return h, g, driver, va, ref
}

func TestMapGuestBufferRoundTrip(t *testing.T) {
	h, g, driver, va, ref := bufRig(t, grant.KindCopyTo)
	m, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyTo, va, 3*mem.PageSize, driver)
	if err != nil {
		t.Fatal(err)
	}
	// Write through the mapping (the driver filling a guest read buffer),
	// straddling a page boundary.
	msg := bytes.Repeat([]byte("boundary"), 1024) // 8 KB
	at := va + mem.GuestVirt(mem.PageSize) - 100
	if err := m.Copy(at, msg, true); err != nil {
		t.Fatal(err)
	}
	// The bytes really landed in the guest process's memory.
	got := make([]byte, len(msg))
	if err := g.user().Read(at, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("mapped write did not reach guest memory")
	}
	// And read back through the mapping (copy-to-user grants allow both).
	back := make([]byte, len(msg))
	if err := m.Copy(at, back, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("mapped read did not observe guest memory")
	}
	if !m.Covers(ref, grant.KindCopyTo, va, 3*mem.PageSize) {
		t.Fatal("mapping does not cover its own declared range")
	}
	if m.Covers(ref, grant.KindCopyFrom, va, 8) {
		t.Fatal("mapping covers the wrong kind")
	}
	if m.Covers(ref, grant.KindCopyTo, va+3*mem.GuestVirt(mem.PageSize), 1) {
		t.Fatal("mapping covers bytes past its declared range")
	}
}

// A copy-from-user grant authorizes reading the guest buffer only: the
// mapping's EPT permission is read-only and a write through it faults — the
// same denial an assisted copy in the wrong direction would get.
func TestMapGuestBufferWrongDirectionFaults(t *testing.T) {
	h, g, driver, va, ref := bufRig(t, grant.KindCopyFrom)
	if err := g.user().Write(va, []byte("guest-owned bytes")); err != nil {
		t.Fatal(err)
	}
	m, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyFrom, va, 3*mem.PageSize, driver)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 17)
	if err := m.Copy(va, got, false); err != nil {
		t.Fatal(err)
	}
	if string(got) != "guest-owned bytes" {
		t.Fatalf("read through copy-from mapping = %q", got)
	}
	if err := m.Copy(va, []byte("overwrite"), true); err == nil {
		t.Fatal("write through a read-only (copy-from-user) mapping did not fault")
	}
}

// Kind/range mismatches are caught at map time by grant validation, exactly
// as a mismatched copy would be.
func TestMapGuestBufferValidatesGrant(t *testing.T) {
	h, g, driver, va, ref := bufRig(t, grant.KindCopyTo)
	if _, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyFrom, va, mem.PageSize, driver); err == nil {
		t.Fatal("mapping under the wrong kind succeeded")
	}
	if _, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyTo, va, 4*mem.PageSize, driver); err == nil {
		t.Fatal("mapping past the granted range succeeded")
	}
	if err := g.grants.Revoke(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyTo, va, mem.PageSize, driver); err == nil {
		t.Fatal("mapping under a revoked grant succeeded")
	}
}

// Unmap destroys the driver-EPT entries: subsequent access faults rather than
// silently reading memory the grant no longer covers. Idempotent.
func TestUnmappedBufferFaults(t *testing.T) {
	h, g, driver, va, ref := bufRig(t, grant.KindCopyTo)
	m, err := h.MapGuestBuffer(g.vm, ref, grant.KindCopyTo, va, 3*mem.PageSize, driver)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(va, []byte("live"), true); err != nil {
		t.Fatal(err)
	}
	m.Unmap()
	if !m.Dead() {
		t.Fatal("mapping not dead after Unmap")
	}
	if err := m.Copy(va, make([]byte, 4), false); err == nil {
		t.Fatal("read through an unmapped buffer did not fault")
	}
	if err := m.Copy(va, []byte("late"), true); err == nil {
		t.Fatal("write through an unmapped buffer did not fault")
	}
	m.Unmap() // idempotent
}
