package cvd

// The dispatcher serves posted slots from a queue that one ring scan fills
// and that it drops wherever it may block. These tests hold it to the
// reference order of view_test.go's word-by-word scan: repeatedly taking the
// oldest posted slot (lowest sequence number, ties in slot order) and
// marking it running, over ring states a hostile guest writes while the
// dispatcher is blocked.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"paradice/internal/kernel"
	"paradice/internal/sim"
)

// serveStep is what the guest does in one turn: slot words it writes, header
// words it bumps, whether it rings the backend's doorbell, and how long it
// then sleeps.
type serveStep struct {
	writes    []slotWrite
	subCount  uint32 // written to hdrSubCount when nonzero
	heartbeat bool   // bump hdrHbReq
	doorbell  bool
	wait      sim.Duration
}

// slotWrite sets one slot's state and sequence words.
type slotWrite struct {
	slot       int
	state, seq uint32
}

// serveWaits are the guest's sleeps between turns: from inside the
// dispatcher's batch-descriptor charge to past its poll window.
var serveWaits = []sim.Duration{0, 50, 300, sim.Microsecond, 20 * sim.Microsecond,
	150 * sim.Microsecond, 250 * sim.Microsecond, sim.Millisecond}

// serveSettle is long enough after a doorbell for the dispatcher to take
// every posted slot: it is awake within a charge of at most a hypercall.
const serveSettle = 20 * sim.Microsecond

// serveStates are the state words the guest writes, hostile ones included.
var serveStates = []uint32{slotPosted, slotPosted, slotPosted, slotFree, slotDone, slotClaimed, 7, 0xFFFFFFFF}

// checkServeOrder runs steps against a backend whose handler set (capped at
// workers, 0 for uncapped) records the slots in the order its handlers start
// them. After each turn the slots the dispatcher took since the guest's
// previous turn must be a prefix of the reference order of the slots posted
// then, all of it once a doorbell has had time to settle, and the handlers'
// record must be those prefixes in turn. The guest never writes a running slot, whose handler
// owns it until the response lands.
func checkServeOrder(t *testing.T, mode Mode, workers int, steps []serveStep) error {
	r := newRig(t, mode, kernel.Linux)
	pl := NewPool(r.driverK, workers)
	pl.Join(r.be)
	var served []int
	pl.onServe = func(_ *Backend, req request) { served = append(served, req.slot) }
	ref := refRing{r.fe.ring.acc}
	ring := r.fe.ring
	var want []int
	var err error
	r.env.Spawn("hostile-guest", func(p *sim.Proc) {
		var order []int // reference serve order after the guest's last turn
		settled := false
		account := func() bool {
			k := 0
			for k < len(order) && ring.slotState(order[k]) != slotPosted {
				k++
			}
			for _, s := range order[k:] {
				if ring.slotState(s) != slotPosted {
					err = fmt.Errorf("at %v: slot %d taken before older slot %d (order %v)", p.Now(), s, order[k], order)
					return false
				}
			}
			if settled && k < len(order) {
				err = fmt.Errorf("at %v: slots %v still posted after the doorbell settled", p.Now(), order[k:])
				return false
			}
			want = append(want, order[:k]...)
			return true
		}
		for _, st := range append(steps[:len(steps):len(steps)], serveStep{doorbell: true, wait: sim.Millisecond}) {
			if !account() {
				return
			}
			for _, w := range st.writes {
				if ring.slotState(w.slot) == slotRunning {
					continue
				}
				ring.writeU32(slotOff(w.slot)+sSeq, w.seq)
				ring.setSlotState(w.slot, w.state)
			}
			if st.subCount != 0 {
				ring.writeU32(hdrSubCount, st.subCount)
			}
			if st.heartbeat {
				ring.writeU32(hdrHbReq, ring.readU32(hdrHbReq)+1)
			}
			order = order[:0]
			for {
				s, ok := ref.oldestPosted()
				if !ok {
					break
				}
				order = append(order, s)
				ring.setSlotState(s, slotRunning)
			}
			for _, s := range order {
				ring.setSlotState(s, slotPosted)
			}
			if st.doorbell {
				r.be.doorbell.Trigger()
			}
			settled = st.doorbell && st.wait >= serveSettle
			p.Sleep(st.wait)
		}
		account()
	})
	r.env.Run()
	if err != nil {
		return err
	}
	if !slices.Equal(served, want) {
		return fmt.Errorf("dispatcher served slots %v, reference order %v", served, want)
	}
	return nil
}

// randomServeSteps draws a guest's turns: posts with duplicate, small and
// wrapping sequence numbers, recycles, hostile state words, batch counts,
// heartbeats and doorbells, with sleeps that land inside the dispatcher's
// charges and poll window as well as past them.
func randomServeSteps(rng *rand.Rand) []serveStep {
	steps := make([]serveStep, 5+rng.Intn(40))
	for i := range steps {
		st := &steps[i]
		for n := rng.Intn(6); n > 0; n-- {
			st.writes = append(st.writes, slotWrite{
				slot:  rng.Intn(slotCount),
				state: serveStates[rng.Intn(len(serveStates))],
				seq:   []uint32{0, 1, 2, 0xFFFFFFFE, 0xFFFFFFFF, uint32(rng.Intn(8)), uint32(rng.Int63())}[rng.Intn(7)],
			})
		}
		if rng.Intn(4) == 0 {
			st.subCount = uint32(1 + rng.Intn(3))
		}
		st.heartbeat = rng.Intn(6) == 0
		st.doorbell = rng.Intn(3) != 0
		st.wait = serveWaits[rng.Intn(len(serveWaits))]
	}
	return steps
}

func TestDispatcherServeOrderProperty(t *testing.T) {
	for _, workers := range []int{1, 0} {
		for _, mode := range []Mode{Polling, Interrupts, Adaptive} {
			f := func(seed int64) bool {
				if err := checkServeOrder(t, mode, workers, randomServeSteps(rand.New(rand.NewSource(seed)))); err != nil {
					t.Logf("%v, %d workers, seed %d: %v", mode, workers, seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzDispatcherServeOrder plays a hostile guest whose turns come from the
// fuzzer's bytes, seven per slot write: a control byte (bits 0-2 pick the
// sleep, bit 3 ends the turn, bit 4 rings the doorbell, bit 5 bumps the
// heartbeat, bit 6 sets a batch count), the slot, the state word's index
// and the four bytes of the sequence number. Whatever it writes, the
// dispatcher must serve in the reference order.
func FuzzDispatcherServeOrder(f *testing.F) {
	f.Add([]byte{})
	// Three posts in one turn, out of slot order and with a tie, then the
	// doorbell; the next turn posts an older one while the dispatcher spins.
	f.Add([]byte{
		0, 40, 0, 5, 0, 0, 0,
		0, 7, 0, 3, 0, 0, 0,
		0x18 | 4, 93, 0, 3, 0, 0, 0,
		0x18 | 3, 12, 0, 1, 0, 0, 0,
		0x08 | 7, 12, 3, 0, 0, 0, 0,
	})
	// Wrapping sequence numbers, a batch count and a heartbeat in one turn.
	f.Add([]byte{
		0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF,
		0x78 | 1, 99, 2, 0xFE, 0xFF, 0xFF, 0xFF,
		0x18 | 7, 50, 6, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var steps []serveStep
		st := serveStep{}
		for ; len(data) >= 7; data = data[7:] {
			ctl := data[0]
			st.writes = append(st.writes, slotWrite{
				slot:  int(data[1]) % slotCount,
				state: serveStates[int(data[2])%len(serveStates)],
				seq:   binary.LittleEndian.Uint32(data[3:]),
			})
			if ctl&0x40 != 0 {
				st.subCount = 1 + uint32(ctl&3)
			}
			st.heartbeat = st.heartbeat || ctl&0x20 != 0
			st.doorbell = st.doorbell || ctl&0x10 != 0
			if ctl&0x08 != 0 {
				st.wait = serveWaits[ctl&7]
				steps = append(steps, st)
				st = serveStep{}
			}
		}
		steps = append(steps, st)
		for _, mode := range []Mode{Polling, Interrupts} {
			if err := checkServeOrder(t, mode, 1, steps); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
	})
}
