package workload

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/device/camera"
	"paradice/internal/device/input"
	"paradice/internal/driver/evdev"
	"paradice/internal/driver/pcm"
	"paradice/internal/driver/uvc"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// MouseResult is the §6.1.5 latency measurement.
type MouseResult struct {
	Samples int
	// Avg is the mean latency from the event being reported to the device
	// driver to the application's read completing.
	Avg sim.Duration
}

// RunMouseLatency measures input latency: an X-server-style reader loops
// poll -> read -> read-until-EAGAIN on the event device while the mouse
// emits motion at a fixed rate.
func RunMouseLatency(env *sim.Env, k *kernel.Kernel, mouse *input.Device, samples int) (MouseResult, error) {
	res := MouseResult{Samples: samples}
	p, err := k.NewProcess("xserver")
	if err != nil {
		return res, err
	}
	var total sim.Duration
	task := p.Go("eventloop", func(t *kernel.Task) error {
		fd, err := t.Open("/dev/input/event0", devfile.ORdOnly|devfile.ONonblock)
		if err != nil {
			return err
		}
		buf, err := p.Alloc(evdev.EventSize * 16)
		if err != nil {
			return err
		}
		got := 0
		for got < samples {
			if _, err := t.Poll(fd, devfile.PollIn, -1); err != nil {
				return err
			}
			for {
				n, err := t.Read(fd, buf, evdev.EventSize*16)
				if kernel.IsErrno(err, kernel.EAGAIN) {
					break
				}
				if err != nil {
					return err
				}
				raw := make([]byte, n)
				if err := p.Mem.Read(buf, raw); err != nil {
					return err
				}
				for off := 0; off+evdev.EventSize <= n; off += evdev.EventSize {
					ev := evdev.DecodeEvent(raw[off:])
					total += t.Sim().Now().Sub(ev.At)
					got++
				}
			}
		}
		res.Avg = total / sim.Duration(samples)
		return nil
	})
	// The mouse moves once per millisecond; latency is rate-independent
	// ("no matter how fast the mouse moves").
	for i := 0; i < samples; i++ {
		mouse.InjectAt(env.Now().Add(sim.Duration(i+1)*sim.Millisecond), input.EvRel, 0, int32(i))
	}
	env.Run()
	return res, task.Err()
}

// CameraResult is the §6.1.6 capture measurement.
type CameraResult struct {
	Res    camera.Resolution
	Frames int
	FPS    float64
	// Verified reports that every sampled frame byte matched the sensor's
	// test pattern after crossing the whole stack.
	Verified bool
}

// RunCamera captures frames GUVCview-style: negotiate the format, map four
// driver buffers, and run the qbuf/dqbuf loop.
func RunCamera(env *sim.Env, k *kernel.Kernel, r camera.Resolution, frames int) (CameraResult, error) {
	res := CameraResult{Res: r, Frames: frames, Verified: true}
	p, err := k.NewProcess("guvcview")
	if err != nil {
		return res, err
	}
	task := p.Go("capture", func(t *kernel.Task) error {
		fd, err := t.Open("/dev/video0", devfile.ORdWr)
		if err != nil {
			return err
		}
		defer t.Close(fd)
		arg, _ := p.Alloc(32)
		// ioctl stores vals in the argument block, issues cmd and returns
		// the first n bytes the driver left there.
		ioctl := func(cmd devfile.IoctlCmd, n int, vals ...uint32) ([]byte, error) {
			b := make([]byte, max(len(vals)*4, n))
			for i, v := range vals {
				binary.LittleEndian.PutUint32(b[i*4:], v)
			}
			if err := p.Mem.Write(arg, b[:len(vals)*4]); err != nil {
				return nil, err
			}
			if _, err := t.Ioctl(fd, cmd, arg); err != nil {
				return nil, err
			}
			return b[:n], p.Mem.Read(arg, b[:n])
		}
		fmtOut, err := ioctl(uvc.VidiocSFmt, 16, uint32(r.W), uint32(r.H), 0, 0)
		if err != nil {
			return err
		}
		size := binary.LittleEndian.Uint32(fmtOut[8:])
		const nbufs = 4
		if _, err := ioctl(uvc.VidiocReqbufs, 0, nbufs, 0); err != nil {
			return err
		}
		mapLen := (uint64(size) + mem.PageSize - 1) &^ (mem.PageSize - 1)
		var vas [nbufs]mem.GuestVirt
		for i := 0; i < nbufs; i++ {
			buf, err := ioctl(uvc.VidiocQuerybuf, 24, uint32(i), 0, 0, 0, 0, 0)
			if err != nil {
				return err
			}
			if vas[i], err = t.Mmap(fd, mapLen, binary.LittleEndian.Uint64(buf[8:])); err != nil {
				return err
			}
		}
		for i := 0; i < nbufs; i++ {
			if _, err := ioctl(uvc.VidiocQbuf, 0, uint32(i), 0); err != nil {
				return err
			}
		}
		if _, err := t.Ioctl(fd, uvc.VidiocStreamOn, 0); err != nil {
			return err
		}
		start := t.Sim().Now()
		for f := 0; f < frames; f++ {
			out, err := ioctl(uvc.VidiocDqbuf, 8)
			if err != nil {
				return err
			}
			idx := binary.LittleEndian.Uint32(out[0:])
			seq := binary.LittleEndian.Uint32(out[4:])
			// Spot-check the frame pattern through the mapped buffer.
			probe := make([]byte, 16)
			if err := p.UserRead(t, vas[idx]+100, probe); err != nil {
				return err
			}
			for i, b := range probe {
				if b != camera.FramePattern(seq, 100+i) {
					res.Verified = false
				}
			}
			if _, err := ioctl(uvc.VidiocQbuf, 0, idx, 0); err != nil {
				return err
			}
		}
		elapsed := t.Sim().Now().Sub(start)
		if _, err := t.Ioctl(fd, uvc.VidiocStreamOff, 0); err != nil {
			return err
		}
		res.FPS = float64(frames) / elapsed.Seconds()
		return nil
	})
	env.Run()
	return res, task.Err()
}

// AudioResult is the §6.1.6 playback measurement.
type AudioResult struct {
	// Elapsed is total playback time for the file.
	Elapsed sim.Duration
	// Bytes is the PCM data written.
	Bytes int
}

// RunAudio plays seconds of 48 kHz 16-bit stereo audio and measures the
// time until the device has drained it.
func RunAudio(env *sim.Env, k *kernel.Kernel, seconds float64) (AudioResult, error) {
	var res AudioResult
	p, err := k.NewProcess("aplay")
	if err != nil {
		return res, err
	}
	task := p.Go("play", func(t *kernel.Task) error {
		fd, err := t.Open("/dev/snd/pcmC0D0p", devfile.OWrOnly)
		if err != nil {
			return err
		}
		defer t.Close(fd)
		arg, _ := p.Alloc(8)
		hw := make([]byte, 8)
		binary.LittleEndian.PutUint32(hw[0:], 48000)
		binary.LittleEndian.PutUint32(hw[4:], 4)
		if err := p.Mem.Write(arg, hw); err != nil {
			return err
		}
		if _, err := t.Ioctl(fd, pcm.IoctlHwParams, arg); err != nil {
			return err
		}
		total := int(seconds * 48000 * 4)
		chunk := 16384
		buf, _ := p.Alloc(chunk)
		sample := make([]byte, chunk)
		for i := range sample {
			sample[i] = byte(i * 7)
		}
		if err := p.Mem.Write(buf, sample); err != nil {
			return err
		}
		start := t.Sim().Now()
		for written := 0; written < total; {
			n := chunk
			if total-written < n {
				n = total - written
			}
			w, err := t.Write(fd, buf, n)
			if err != nil {
				return err
			}
			written += w
		}
		if _, err := t.Ioctl(fd, pcm.IoctlDrain, 0); err != nil {
			return err
		}
		res.Elapsed = t.Sim().Now().Sub(start)
		res.Bytes = total
		return nil
	})
	env.Run()
	return res, task.Err()
}
