package cvd

// Fuzz targets for the CVD ring-parsing surface. The shared ring page is
// writable by the peer VM, so every word of it — header fields (poll
// flags, notification bits, heartbeat sequences, restart epoch, batch
// descriptors, unused words) and slot fields (state, op, flags, file id, grant ref, seq, args) —
// is hostile input. The contract under fuzz: arbitrary bytes NEVER panic the
// host code on either side; they surface as honest errnos (or as the
// scribbling guest wedging its own channel, which the grant table makes a
// self-inflicted wound, §4.1). The simulation is a DES, so every run
// terminates when the event queue drains — no timeouts needed.
//
// CI runs these continuously in the nightly job (go test -fuzz smoke); the
// checked-in corpus below covers the interesting boundary patterns.

import (
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// scribble writes data over the ring page at an offset derived from its
// first byte, so the fuzzer can reach the header and any slot alignment.
func scribble(r *rig, data []byte) {
	if len(data) == 0 {
		return
	}
	off := int(data[0]) * 16 % mem.PageSize
	if off+len(data) > mem.PageSize {
		data = data[:mem.PageSize-off]
	}
	if len(data) == 0 {
		return
	}
	if err := r.fe.ring.acc.WriteAt(off, data); err != nil {
		panic("fuzz rig ring inaccessible: " + err.Error())
	}
}

// probe issues one legitimate operation after the hostile bytes landed. The
// channel may be wedged (the guest sabotaged itself), but the attempt must
// come back as a Go error or a success — never a panic — and the run must
// terminate.
func probe(r *rig, t *testing.T) {
	t.Helper()
	r.fe.SetDeadline(2 * sim.Millisecond) // a wedged channel times out honestly
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
		if err != nil {
			return // honest errno: acceptable outcome under sabotage
		}
		src, err := p.AllocBytes([]byte("probe"))
		if err != nil {
			return
		}
		_, _ = tk.Write(fd, src, 5)
		_, _ = tk.Ioctl(fd, tdNoop, 0)
	})
}

func ringSeedCorpus(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, mem.PageSize))
	// A posted slot with garbage op/fileID/ref/args at slot 0 (first byte 6
	// steers the offset to 96 = hdrSize).
	f.Add([]byte{6, 0, 0, 0, slotPosted, 0, 0, 0, 0xFF, 0xEE, 0xDD, 0xCC,
		0xBB, 0xAA, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// Header scribble: the unused word at 0, poll flags, notif bits,
	// heartbeat request/ack, and restart epoch all saturated.
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF})
	// Every slot marked done with negative-looking ret/errno words.
	all := make([]byte, mem.PageSize)
	for s := 0; s < slotCount; s++ {
		base := hdrSize + s*slotSize
		all[base+sState] = slotDone
		for i := 0; i < 8; i++ {
			all[base+sRet+i] = 0x80
		}
	}
	f.Add(all)
}

// FuzzRingHostileGuestBytes plays a malicious guest: arbitrary bytes land on
// the ring, then the backend's doorbell rings. The backend parses whatever
// slot and header state it finds — unknown ops, dangling file ids, garbage
// grant references, wild VAs — and must answer with errnos, not panics.
func FuzzRingHostileGuestBytes(f *testing.F) {
	ringSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t, Interrupts, kernel.Linux)
		scribble(r, data)
		r.h.SendInterrupt(r.driverVM, r.be.vecToBackend)
		r.env.Run()
		probe(r, t)
	})
}

// FuzzRingHostileBackendBytes plays a compromised driver VM: a legitimate
// request goes in flight, then hostile bytes overwrite the ring — responses,
// notification bits, heartbeat words, the restart epoch — and the frontend's
// response scan and notification handler parse them. Errnos only, no panics,
// and the guest-side kernel survives to issue another operation.
func FuzzRingHostileBackendBytes(f *testing.F) {
	ringSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t, Interrupts, kernel.Linux)
		r.fe.SetDeadline(2 * sim.Millisecond)
		r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
			fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
			if err != nil {
				return
			}
			src, _ := p.AllocBytes([]byte("payload"))
			_, _ = tk.Write(fd, src, 7)
		})
		scribble(r, data)
		// The frontend's two ISRs parse the scribbled state directly.
		r.fe.scanDone()
		r.fe.handleNotifs()
		r.env.Run()
		probe(r, t)
	})
}

// batchSeedCorpus seeds the hostile patterns specific to the multi-entry
// batch descriptor words. First byte 2 steers scribble's offset to 32, an
// unused header word, so one payload spans it, hdrSubCount, the unused
// words at 40–56, and the four hdrDoneBits words.
func batchSeedCorpus(f *testing.F) {
	ringSeedCorpus(f)
	// Everything saturated: unused words garbage, count huge, done bitmap
	// full.
	sat := make([]byte, 1+44)
	sat[0] = 2
	for i := 1; i < len(sat); i++ {
		sat[i] = 0xFF
	}
	f.Add(sat)
	// hdrSubCount enormous: the dispatcher must clamp the advisory count,
	// not trust it.
	lie := make([]byte, 1+8)
	lie[0] = 2
	lie[5], lie[6], lie[7], lie[8] = 0xFF, 0xFF, 0xFF, 0xFF // hdrSubCount
	f.Add(lie)
	// A one-slot count with garbage in the unused word at 52: the count
	// names no slot, and nothing reads the word.
	wild := make([]byte, 1+24)
	wild[0] = 2
	wild[5] = 1                                                     // hdrSubCount = 1
	wild[21], wild[22], wild[23], wild[24] = 0xFF, 0xFF, 0xFF, 0xFF // unused word at 52
	f.Add(wild)
	// Done bits asserted for every slot regardless of slot state: scanDone
	// must validate each bit against the actual slot word.
	done := make([]byte, 1+44)
	done[0] = 2
	for i := 25; i < len(done); i++ { // unused word at 56 + hdrDoneBits
		done[i] = 0xFF
	}
	f.Add(done)
}

// FuzzBatchDescriptorHostileWords attacks the multi-entry batch descriptor:
// hostile submission counts are parsed by the backend's dispatcher
// (consumeSubBatch) and hostile completion counts/bitmaps by the frontend's
// response scan (scanDone). Both words are advisory by design — every bit is
// validated against the authoritative slot state — so arbitrary values must
// surface as no-ops or honest errnos, never panics, on a channel with
// batching and the adaptive stance armed.
func FuzzBatchDescriptorHostileWords(f *testing.F) {
	batchSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t, Adaptive, kernel.Linux, func(c *Config) {
			c.CoalesceWindow = 20 * sim.Microsecond
		})
		// A legitimate operation first, so slots exist in realistic states
		// when the hostile words land.
		r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
			fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
			if err != nil {
				return
			}
			src, _ := p.AllocBytes([]byte("payload"))
			_, _ = tk.Write(fd, src, 7)
		})
		scribble(r, data)
		// Drive both descriptor consumers against the scribbled words.
		r.h.SendInterrupt(r.driverVM, r.be.vecToBackend)
		r.fe.scanDone()
		r.env.Run()
		probe(r, t)
	})
}

// FuzzReconnectEpochHostileWords scribbles the ring mid-flight and then runs
// the reconnect path — the one consumer of the restart-epoch word — against
// it. Reconnect must either succeed (attaching a successor backend at a
// bumped epoch) or fail with an error; the epoch word's value, however
// hostile, must never panic the epoch arithmetic or let the stale backend
// keep serving.
func FuzzReconnectEpochHostileWords(f *testing.F) {
	ringSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t, Interrupts, kernel.Linux)
		r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
			fd, err := tk.Open("/dev/testdev", devfile.ORdWr)
			if err != nil {
				return
			}
			src, _ := p.AllocBytes([]byte("payload"))
			_, _ = tk.Write(fd, src, 7)
		})
		r.be.Stop()
		scribble(r, data)
		be2, err := Reconnect(r.fe, r.h, r.driverVM, r.driverK, "/dev/testdev")
		if err != nil {
			return // an honest failure is acceptable; a panic is not
		}
		if be2.Alive() == r.be.Alive() && r.be.Alive() {
			t.Fatal("stale backend still alive after reconnect")
		}
		r.be = be2
		probe(r, t)
	})
}
