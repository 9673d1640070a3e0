// Package pcm implements an ALSA-style PCM playback driver over the
// simulated HD Audio codec: hardware-parameter negotiation and a blocking
// write path that backpressures at the DMA ring, so playback proceeds at
// exactly the sample rate.
package pcm

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/device/audio"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
)

// IoctlHwParams configures the stream: in/out {rate u32, frameBytes u32}.
var IoctlHwParams = devfile.IOWR('A', 0x01, 8)

// IoctlDrain blocks until the buffered samples have played out.
var IoctlDrain = devfile.IO('A', 0x02)

// ringPages is the DMA buffer size (16 KiB ≈ 85 ms at CD rate).
const ringPages = 4

// Driver is the PCM playback device.
type Driver struct {
	kernel.BaseOps
	K   *kernel.Kernel
	Dev *audio.Device

	ring   []mem.GuestPhys
	wr     int
	wq     *kernel.WaitQueue
	opened bool
}

// Attach allocates the DMA ring and registers the device file.
func Attach(k *kernel.Kernel, dev *audio.Device, path string) (*Driver, error) {
	d := &Driver{K: k, Dev: dev, wq: k.NewWaitQueue()}
	chunks := make([]iommu.BusAddr, ringPages)
	for i := 0; i < ringPages; i++ {
		pg, err := k.AllocFrame()
		if err != nil {
			return nil, err
		}
		d.ring = append(d.ring, pg)
		chunks[i] = iommu.BusAddr(pg)
	}
	dev.Configure(dev.Rate(), dev.FrameBytes(), chunks, ringPages*mem.PageSize)
	dev.OnDrain(d.wq.Wake)
	k.RegisterDevice(path, d, d)
	return d, nil
}

// Open implements kernel.FileOps (one playback stream at a time).
func (d *Driver) Open(c *kernel.FopCtx) error {
	if d.opened {
		return kernel.EBUSY
	}
	d.opened = true
	return nil
}

// Release implements kernel.FileOps.
func (d *Driver) Release(c *kernel.FopCtx) error {
	d.opened = false
	return nil
}

// Ioctl implements kernel.FileOps.
func (d *Driver) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	switch cmd {
	case IoctlHwParams:
		buf := make([]byte, 8)
		if err := kernel.CopyFromUser(c, arg, buf); err != nil {
			return 0, err
		}
		rate := int(binary.LittleEndian.Uint32(buf[0:]))
		fsz := int(binary.LittleEndian.Uint32(buf[4:]))
		if rate < 8000 || rate > 192000 || fsz < 1 || fsz > 16 {
			return 0, kernel.EINVAL
		}
		chunks := make([]iommu.BusAddr, len(d.ring))
		for i, pg := range d.ring {
			chunks[i] = iommu.BusAddr(pg)
		}
		d.Dev.Configure(rate, fsz, chunks, ringPages*mem.PageSize)
		if err := kernel.CopyToUser(c, arg, buf); err != nil {
			return 0, err
		}
		return 0, nil
	case IoctlDrain:
		for d.Dev.BufferLevel() > 0 {
			d.wq.Wait(c.Task)
		}
		return 0, nil
	}
	return 0, kernel.ENOTTY
}

// Write implements kernel.FileOps: copy samples into the DMA ring, blocking
// while it is full — the backpressure that paces playback at the sample
// rate.
func (d *Driver) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	written := 0
	for written < n {
		space := d.Dev.RingSize() - d.Dev.BufferLevel()
		for space == 0 {
			if c.File.Nonblock() {
				if written > 0 {
					return written, nil
				}
				return 0, kernel.EAGAIN
			}
			d.wq.Wait(c.Task)
			space = d.Dev.RingSize() - d.Dev.BufferLevel()
		}
		chunk := n - written
		if chunk > space {
			chunk = space
		}
		// Copy into the ring at the write offset, page by page.
		remaining := chunk
		for remaining > 0 {
			page := d.wr / mem.PageSize
			off := d.wr % mem.PageSize
			c2 := mem.PageSize - off
			if c2 > remaining {
				c2 = remaining
			}
			buf := make([]byte, c2)
			if err := kernel.CopyFromUser(c, src+mem.GuestVirt(written+(chunk-remaining)), buf); err != nil {
				return written, err
			}
			if err := d.K.Space.Write(d.ring[page]+mem.GuestPhys(off), buf); err != nil {
				return written, kernel.EIO
			}
			d.wr = (d.wr + c2) % d.Dev.RingSize()
			remaining -= c2
		}
		d.Dev.Feed(chunk)
		written += chunk
	}
	return written, nil
}

// Poll implements kernel.FileOps.
func (d *Driver) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(d.wq)
	if d.Dev.BufferLevel() < d.Dev.RingSize() {
		return devfile.PollOut
	}
	return 0
}
