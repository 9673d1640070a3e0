// Package uvc implements a V4L2-style webcam driver over the simulated
// sensor: format negotiation, driver-allocated mmap buffers, the
// qbuf/dqbuf streaming loop, and the single-open restriction the paper
// notes for camera drivers (§3.2.3, §5.1).
package uvc

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/device/camera"
	"paradice/internal/iommu"
	"paradice/internal/kernel"
	"paradice/internal/mem"
)

// V4L2-flavored ioctls ('V' magic).
var (
	// VidiocSFmt: in/out {width u32, height u32, sizeimage u32, pad u32}.
	VidiocSFmt = devfile.IOWR('V', 0x01, 16)
	// VidiocReqbufs: in/out {count u32, pad u32}.
	VidiocReqbufs = devfile.IOWR('V', 0x02, 8)
	// VidiocQuerybuf: in/out {index u32, pad u32, pgoff u64, length u32, pad u32}.
	VidiocQuerybuf = devfile.IOWR('V', 0x03, 24)
	// VidiocQbuf: in {index u32, pad u32}.
	VidiocQbuf = devfile.IOW('V', 0x04, 8)
	// VidiocDqbuf: out {index u32, seq u32}.
	VidiocDqbuf = devfile.IOR('V', 0x05, 8)
	// VidiocStreamOn / StreamOff: no payload.
	VidiocStreamOn  = devfile.IO('V', 0x06)
	VidiocStreamOff = devfile.IO('V', 0x07)
)

// MaxBuffers bounds a REQBUFS allocation.
const MaxBuffers = 8

// frameBuf is one driver-allocated capture buffer.
type frameBuf struct {
	pages  []mem.GuestPhys
	length int
	queued bool
}

// Driver is the webcam driver.
type Driver struct {
	kernel.BaseOps
	K   *kernel.Kernel
	Cam *camera.Device

	opened bool
	bufs   []*frameBuf
	done   []uint32 // indexes of filled buffers, FIFO
	seqs   map[int]uint32
	wq     *kernel.WaitQueue
}

// Attach registers /dev/video0.
func Attach(k *kernel.Kernel, cam *camera.Device, path string) *Driver {
	d := &Driver{K: k, Cam: cam, wq: k.NewWaitQueue(), seqs: make(map[int]uint32)}
	cam.OnFrame(func(index int, seq uint32) {
		d.done = append(d.done, uint32(index))
		d.seqs[index] = seq
		d.wq.Wake()
	})
	k.RegisterDevice(path, d, d)
	return d
}

// Open implements kernel.FileOps — one process at a time (§5.1).
func (d *Driver) Open(c *kernel.FopCtx) error {
	if d.opened {
		return kernel.EBUSY
	}
	d.opened = true
	return nil
}

// Release implements kernel.FileOps.
func (d *Driver) Release(c *kernel.FopCtx) error {
	d.Cam.StreamOff()
	d.opened = false
	d.bufs = nil
	d.done = nil
	return nil
}

// Ioctl implements kernel.FileOps.
func (d *Driver) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	switch cmd {
	case VidiocSFmt:
		return d.sFmt(c, arg)
	case VidiocReqbufs:
		return d.reqbufs(c, arg)
	case VidiocQuerybuf:
		return d.querybuf(c, arg)
	case VidiocQbuf:
		return d.qbuf(c, arg)
	case VidiocDqbuf:
		return d.dqbuf(c, arg)
	case VidiocStreamOn:
		d.Cam.StreamOn()
		return 0, nil
	case VidiocStreamOff:
		d.Cam.StreamOff()
		return 0, nil
	}
	return 0, kernel.ENOTTY
}

func (d *Driver) sFmt(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, 16)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	w := int(binary.LittleEndian.Uint32(buf[0:]))
	h := int(binary.LittleEndian.Uint32(buf[4:]))
	found := false
	for _, r := range camera.Resolutions {
		if r.W == w && r.H == h {
			d.Cam.SetResolution(r)
			found = true
			break
		}
	}
	if !found {
		return 0, kernel.EINVAL
	}
	binary.LittleEndian.PutUint32(buf[8:], uint32(d.Cam.FrameBytes()))
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

func (d *Driver) reqbufs(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, 8)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	count := binary.LittleEndian.Uint32(buf[0:])
	if count == 0 || count > MaxBuffers {
		return 0, kernel.EINVAL
	}
	size := d.Cam.FrameBytes()
	pages := (size + mem.PageSize - 1) / mem.PageSize
	d.bufs = nil
	for i := uint32(0); i < count; i++ {
		fb := &frameBuf{length: size}
		for p := 0; p < pages; p++ {
			pg, err := d.K.AllocFrame()
			if err != nil {
				return 0, kernel.ENOMEM
			}
			fb.pages = append(fb.pages, pg)
		}
		d.bufs = append(d.bufs, fb)
	}
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

func (d *Driver) querybuf(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, 24)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	idx := binary.LittleEndian.Uint32(buf[0:])
	if int(idx) >= len(d.bufs) {
		return 0, kernel.EINVAL
	}
	// The mmap cookie encodes the buffer index.
	binary.LittleEndian.PutUint64(buf[8:], uint64(idx)<<8)
	binary.LittleEndian.PutUint32(buf[16:], uint32(d.bufs[idx].length))
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

func (d *Driver) qbuf(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	buf := make([]byte, 8)
	if err := kernel.CopyFromUser(c, arg, buf); err != nil {
		return 0, err
	}
	idx := int(binary.LittleEndian.Uint32(buf[0:]))
	if idx >= len(d.bufs) || d.bufs[idx].queued {
		return 0, kernel.EINVAL
	}
	fb := d.bufs[idx]
	fb.queued = true
	chunks := make([]iommu.BusAddr, len(fb.pages))
	for i, pg := range fb.pages {
		chunks[i] = iommu.BusAddr(pg)
	}
	d.Cam.QueueBuffer(idx, chunks, fb.length)
	return 0, nil
}

func (d *Driver) dqbuf(c *kernel.FopCtx, arg mem.GuestVirt) (int32, error) {
	for len(d.done) == 0 {
		if c.File.Nonblock() {
			return 0, kernel.EAGAIN
		}
		d.wq.Wait(c.Task)
	}
	idx := d.done[0]
	d.done = d.done[1:]
	d.bufs[idx].queued = false
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], idx)
	binary.LittleEndian.PutUint32(buf[4:], d.seqs[int(idx)])
	if err := kernel.CopyToUser(c, arg, buf); err != nil {
		return 0, err
	}
	return 0, nil
}

// Mmap implements kernel.FileOps: one buffer per mapping, selected by the
// QUERYBUF cookie.
func (d *Driver) Mmap(c *kernel.FopCtx, v *kernel.VMA) error {
	if v.Start == 0 {
		return kernel.EINVAL
	}
	idx := int(v.Pgoff >> 8)
	if idx >= len(d.bufs) || v.Len > uint64(len(d.bufs[idx].pages))*mem.PageSize {
		return kernel.EINVAL
	}
	return nil
}

// Fault implements kernel.FileOps.
func (d *Driver) Fault(c *kernel.FopCtx, v *kernel.VMA, va mem.GuestVirt) error {
	idx := int(v.Pgoff >> 8)
	if idx >= len(d.bufs) {
		return kernel.EFAULT
	}
	p := (uint64(va) - uint64(v.Start)) / mem.PageSize
	if p >= uint64(len(d.bufs[idx].pages)) {
		return kernel.EFAULT
	}
	return kernel.InsertPFN(c, va, d.bufs[idx].pages[p])
}

// Poll implements kernel.FileOps.
func (d *Driver) Poll(c *kernel.FopCtx, pt *kernel.PollTable) devfile.PollMask {
	pt.Register(d.wq)
	if len(d.done) > 0 {
		return devfile.PollIn
	}
	return 0
}
