package drm

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// Software VSync emulation — the solution §5.3 proposes for the interrupt
// the device data isolation configuration loses: "we are thinking of
// emulating the VSync interrupts in software. We do not expect high
// overhead since VSync happens relatively rarely, e.g., every 16ms for
// rendering 60 frames per second."
//
// The emulated vblank timer is armed lazily: it ticks only while someone is
// waiting on it, so an idle machine quiesces.

// IoctlWaitVSync blocks until the next (emulated) vertical blank:
// in/out {counter u32, pad u32}; returns the vblank counter.
var IoctlWaitVSync = devfile.IOWR('d', 0x07, 8)

// EnableSoftVSync enables the emulated vblank at the given refresh rate.
// Under device data isolation the hardware VSync interrupt cannot be used
// (the interrupt-reason buffer is disabled), so this timer stands in.
func (d *Driver) EnableSoftVSync(hz int) {
	if hz <= 0 {
		return
	}
	d.vsyncOn = true
	d.vsyncPeriod = sim.Duration(int64(sim.Second) / int64(hz))
	if d.vsyncWQ == nil {
		d.vsyncWQ = d.K.NewWaitQueue()
	}
}

// DisableSoftVSync stops the emulated vblank.
func (d *Driver) DisableSoftVSync() { d.vsyncOn = false }

// armVSync schedules the next tick if none is pending.
func (d *Driver) armVSync() {
	if d.vsyncArmed || !d.vsyncOn {
		return
	}
	d.vsyncArmed = true
	d.K.Env.After(d.vsyncPeriod, d.vsyncTick)
}

func (d *Driver) vsyncTick() {
	d.vsyncArmed = false
	if !d.vsyncOn {
		return
	}
	d.VSyncs++
	d.vsyncCount++
	d.vsyncWQ.Wake()
}

// waitVSync blocks the caller until the next vblank. EINVAL when the
// emulation is not enabled.
func (d *Driver) waitVSync(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	if !d.vsyncOn {
		return 0, kernel.EINVAL
	}
	buf := make([]byte, 8)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	target := d.vsyncCount + 1
	for d.vsyncCount < target {
		d.armVSync()
		d.vsyncWQ.Wait(c.Task)
	}
	binary.LittleEndian.PutUint32(buf, uint32(d.vsyncCount))
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return int32(d.vsyncCount), nil
}
