// Package evdev implements the Linux event-device driver for the simulated
// input devices: per-reader event queues, blocking reads, poll, and the
// fasync/SIGIO asynchronous notification path that §2.1 and §5.1 describe.
package evdev

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/device/input"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// EventSize is the wire size of one event record:
// {type u16, code u16, value i32, reportedAt i64}.
const EventSize = 16

// reader is one open file's event queue.
type reader struct {
	file  *kernel.File
	queue []input.Event
}

// Driver is the evdev driver bound to one input device.
type Driver struct {
	kernel.BaseOps
	K   *kernel.Kernel
	Dev *input.Device

	wq      *kernel.WaitQueue
	readers []*reader
	// Dropped counts events discarded due to a full reader queue.
	Dropped int
}

const maxQueued = 256

// Attach registers the device file (e.g. /dev/input/event0).
func Attach(k *kernel.Kernel, dev *input.Device, path string) *Driver {
	d := &Driver{K: k, Dev: dev, wq: k.NewWaitQueue()}
	dev.OnReport(d.report)
	k.RegisterDevice(path, d, d)
	return d
}

// report fans an event out to every reader, wakes poll/read waiters, and
// kills fasync.
func (d *Driver) report(ev input.Event) {
	for _, r := range d.readers {
		if len(r.queue) >= maxQueued {
			d.Dropped++
			continue
		}
		r.queue = append(r.queue, ev)
	}
	d.wq.Wake()
	for _, r := range d.readers {
		if r.file.FasyncOn {
			r.file.Proc.DeliverSIGIO()
		}
	}
}

// Open implements kernel.FileOps.
func (d *Driver) Open(c *kernel.FopCtx) error {
	r := &reader{file: c.File}
	c.File.Priv = r
	d.readers = append(d.readers, r)
	return nil
}

// Release implements kernel.FileOps.
func (d *Driver) Release(c *kernel.FopCtx) error {
	for i, r := range d.readers {
		if r.file == c.File {
			d.readers = append(d.readers[:i], d.readers[i+1:]...)
			break
		}
	}
	return nil
}

// Read implements kernel.FileOps: drain queued events, blocking when empty.
func (d *Driver) Read(c *kernel.FopCtx, dst mem.GuestVirt, n int) (int, error) {
	r, ok := c.File.Priv.(*reader)
	if !ok {
		return 0, kernel.EINVAL
	}
	for len(r.queue) == 0 {
		if c.File.Nonblock() {
			return 0, kernel.EAGAIN
		}
		d.wq.Wait(c.Task)
	}
	count := n / EventSize
	if count == 0 {
		return 0, kernel.EINVAL
	}
	if count > len(r.queue) {
		count = len(r.queue)
	}
	// Dequeue before copying: the hypervisor-assisted copy may yield the
	// processor, and concurrent readers of the same file must not see the
	// same events (the mutex-protected section of the real driver).
	events := r.queue[:count]
	r.queue = r.queue[count:]
	buf := make([]byte, count*EventSize)
	for i, e := range events {
		binary.LittleEndian.PutUint16(buf[i*EventSize+0:], e.Type)
		binary.LittleEndian.PutUint16(buf[i*EventSize+2:], e.Code)
		binary.LittleEndian.PutUint32(buf[i*EventSize+4:], uint32(e.Value))
		binary.LittleEndian.PutUint64(buf[i*EventSize+8:], uint64(e.At))
	}
	if err := kernel.CopyToUser(c, dst, buf); err != nil {
		return 0, err
	}
	return count * EventSize, nil
}

// Poll implements kernel.FileOps.
func (d *Driver) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(d.wq)
	if r, ok := c.File.Priv.(*reader); ok && len(r.queue) > 0 {
		return devfile.PollIn
	}
	return 0
}

// Fasync implements kernel.FileOps (arming is tracked by File.FasyncOn).
func (d *Driver) Fasync(c *kernel.FopCtx, on bool) error { return nil }

// DecodeEvent parses one wire-format event.
func DecodeEvent(b []byte) input.Event {
	return input.Event{
		Type:  binary.LittleEndian.Uint16(b[0:]),
		Code:  binary.LittleEndian.Uint16(b[2:]),
		Value: int32(binary.LittleEndian.Uint32(b[4:])),
		At:    sim.Time(binary.LittleEndian.Uint64(b[8:])),
	}
}
