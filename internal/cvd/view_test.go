package cvd

// Tests of the ring scans that read through one page view per call: they
// allocate nothing, they still refuse a page the driver VM may not read, and
// they decide exactly what the field-by-field reads they replaced decided.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"paradice/internal/grant"
	"paradice/internal/kernel"
	"paradice/internal/mem"
)

func TestRingScansDoNotAllocate(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	for i, slot := range []int{40, 7, 93} {
		r.fe.ring.writeRequest(slot, request{slot: slot, op: opIoctl, seq: uint32(10 - i)})
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Backend.nextPosted", func() {
			r.be.posted.drop()
			if s, ok := r.be.nextPosted(); !ok || s != 93 {
				t.Fatalf("nextPosted = %d, %v; want 93", s, ok)
			}
		}},
		{"Frontend.allocSlot", func() {
			s, ok := r.fe.allocSlot()
			if !ok {
				t.Fatal("allocSlot found no free slot")
			}
			r.fe.ring.setSlotState(s, slotFree)
		}},
		{"Frontend.Occupancy", func() {
			if n := r.fe.Occupancy(); n != 3 {
				t.Fatalf("Occupancy = %d, want 3", n)
			}
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, allocs)
		}
	}
}

// TestRingViewChecksDriverEPT: the backend reads and writes the ring through
// the driver VM's EPT. Its accessor keeps the page's resolution, so after the
// backend has used the ring, an EPT change must still stop its next access
// with the error a first access through a fresh accessor raises.
func TestRingViewChecksDriverEPT(t *testing.T) {
	for _, c := range []struct {
		name   string
		change func(ept *mem.EPT, gpa mem.GuestPhys) error
	}{
		{"unmapped", func(ept *mem.EPT, gpa mem.GuestPhys) error { return ept.Unmap(gpa) }},
		{"write-only", func(ept *mem.EPT, gpa mem.GuestPhys) error { return ept.SetPerm(gpa, mem.PermWrite) }},
		{"read-only", func(ept *mem.EPT, gpa mem.GuestPhys) error { return ept.SetPerm(gpa, mem.PermRead) }},
	} {
		r := newRig(t, Interrupts, kernel.Linux)
		acc := r.be.ring.acc
		r.be.nextPosted()
		r.be.ring.writeU32(hdrNotifBits, 0)
		if err := c.change(r.driverVM.EPT, acc.GPA); err != nil {
			t.Fatal(err)
		}

		cold := &grant.GuestAccessor{Space: acc.Space, GPA: acc.GPA}
		_, wantPage := cold.Page()
		wantWrite := cold.WriteAt(hdrNotifBits, []byte{1, 0, 0, 0})
		_, gotPage := acc.Page()
		gotWrite := acc.WriteAt(hdrNotifBits, []byte{1, 0, 0, 0})
		if !reflect.DeepEqual(gotPage, wantPage) {
			t.Errorf("%s: Page = %v, fresh accessor %v", c.name, gotPage, wantPage)
		}
		if !reflect.DeepEqual(gotWrite, wantWrite) {
			t.Errorf("%s: WriteAt = %v, fresh accessor %v", c.name, gotWrite, wantWrite)
		}
		if c.name != "write-only" && gotWrite == nil {
			t.Errorf("%s: WriteAt succeeded", c.name)
		}
		if c.name == "read-only" {
			continue
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := "cvd: ring page inaccessible: " + wantPage.Error()
				if msg != want || !strings.HasPrefix(msg, "cvd: ring page inaccessible: EPT violation") {
					t.Errorf("%s: nextPosted panicked with %q, want %q", c.name, msg, want)
				}
			}()
			r.be.posted.drop()
			r.be.nextPosted()
		}()
	}
}

// ---- field-by-field reference ----

// refRing reads the ring one word at a time through the VM's guest space,
// as the scans did before they took one view per call.
type refRing struct{ acc *grant.GuestAccessor }

func (x refRing) u32(off int) uint32 {
	var b [4]byte
	if err := x.acc.Space.Read(x.acc.GPA+mem.GuestPhys(off), b[:]); err != nil {
		panic(err)
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (x refRing) state(slot int) uint32 { return x.u32(slotOff(slot) + sState) }

func (x refRing) oldestPosted() (int, bool) {
	best, bestSeq, found := -1, uint32(0), false
	for s := 0; s < slotCount; s++ {
		if x.state(s) != slotPosted {
			continue
		}
		if seq := x.u32(slotOff(s) + sSeq); !found || seq < bestSeq {
			best, bestSeq, found = s, seq, true
		}
	}
	return best, found
}

func (x refRing) firstFree() (int, bool) {
	for s := 0; s < slotCount; s++ {
		if x.state(s) == slotFree {
			return s, true
		}
	}
	return 0, false
}

func (x refRing) occupancy() int {
	n := 0
	for s := 0; s < slotCount; s++ {
		if x.state(s) != slotFree {
			n++
		}
	}
	return n
}

// randomRing fills a ring page with random bytes, then gives every slot a
// state and a sequence number a hostile guest might leave: unknown states
// at and past slotClaimed, duplicate sequence numbers and ones about to
// wrap.
func randomRing(rng *rand.Rand) *[mem.PageSize]byte {
	var pg [mem.PageSize]byte
	rng.Read(pg[:])
	free := rng.Intn(4) != 0 // else no free slot anywhere
	for s := 0; s < slotCount; s++ {
		st := []uint32{slotPosted, slotPosted, slotRunning, slotDone, slotClaimed, 5, 0xFFFFFFFF, uint32(rng.Int63())}[rng.Intn(8)]
		if free && rng.Intn(4) == 0 {
			st = slotFree
		}
		seq := []uint32{0, 1, 2, 0xFFFFFFFE, 0xFFFFFFFF, uint32(rng.Intn(4)), uint32(rng.Int63())}[rng.Intn(7)]
		binary.LittleEndian.PutUint32(pg[slotOff(s)+sState:], st)
		binary.LittleEndian.PutUint32(pg[slotOff(s)+sSeq:], seq)
	}
	return &pg
}

func TestRingScanEquivalenceProperty(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux)
	fe, be := refRing{r.fe.ring.acc}, refRing{r.be.ring.acc}
	f := func(seed int64) bool {
		pg := randomRing(rand.New(rand.NewSource(seed)))
		if err := r.fe.ring.acc.WriteAt(0, pg[:]); err != nil {
			t.Fatal(err)
		}
		r.be.posted.drop()
		gs, gok := r.be.nextPosted()
		ws, wok := be.oldestPosted()
		if gs != ws || gok != wok {
			t.Logf("seed %d: nextPosted = %d, %v; reference %d, %v", seed, gs, gok, ws, wok)
			return false
		}
		if got, want := r.fe.Occupancy(), fe.occupancy(); got != want {
			t.Logf("seed %d: Occupancy = %d; reference %d", seed, got, want)
			return false
		}
		ws, wok = fe.firstFree()
		gs, gok = r.fe.allocSlot()
		if gs != ws || gok != wok {
			t.Logf("seed %d: allocSlot = %d, %v; reference %d, %v", seed, gs, gok, ws, wok)
			return false
		}
		if wok {
			binary.LittleEndian.PutUint32(pg[slotOff(ws)+sState:], slotClaimed)
		}
		after, err := r.fe.ring.acc.Page()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after[:], pg[:]) {
			t.Logf("seed %d: allocSlot changed more than the claimed slot's state", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
