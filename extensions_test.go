package paradice_test

// Tests for the paper's proposed extensions implemented in this
// reproduction: software VSync emulation (§5.3's fix for the interrupt data
// isolation loses) and the second input device of Table 1.

import (
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/device/input"
	"paradice/internal/driver/drm"
	"paradice/internal/driver/evdev"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
)

// Software VSync caps a fast render loop at the refresh rate, restoring the
// frame-rate ceiling that disabling hardware VSync interrupts lost.
func TestSoftVSyncCapsFPS(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{DataIsolation: true}, paradice.PathGPU)
	m.DRM.EnableSoftVSync(60)
	p, err := gk.NewProcess("game")
	if err != nil {
		t.Fatal(err)
	}
	var fps float64
	p.SpawnTask("render", func(tk *kernel.Task) {
		g, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			t.Error(err)
			return
		}
		fb, err := g.CreateBO(4096)
		if err != nil {
			t.Error(err)
			return
		}
		varg, _ := p.Alloc(8)
		const frames = 30
		start := tk.Sim().Now()
		for f := 0; f < frames; f++ {
			// A cheap frame (1µs of GPU work) followed by a vsync wait.
			if err := g.Draw(fb, 0, 1000); err != nil {
				t.Error(err)
				return
			}
			if _, err := tk.Ioctl(g.FD, drm.IoctlWaitVSync, varg); err != nil {
				t.Error(err)
				return
			}
		}
		fps = float64(frames) / tk.Sim().Now().Sub(start).Seconds()
	})
	m.Run()
	m.DRM.DisableSoftVSync()
	if fps < 55 || fps > 61 {
		t.Fatalf("vsync-capped FPS = %.1f, want ~60", fps)
	}
}

func TestVSyncWithoutEmulationFails(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathGPU)
	_ = m
	p, _ := gk.NewProcess("app")
	if err := p.RunTask("main", func(tk *kernel.Task) error {
		g, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			t.Fatal(err)
		}
		varg, _ := p.Alloc(8)
		if _, err := tk.Ioctl(g.FD, drm.IoctlWaitVSync, varg); !kernel.IsErrno(err, kernel.EINVAL) {
			t.Fatalf("vsync wait without emulation: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The keyboard is a second evdev device with its own device file, forwarded
// through its own CVD channel.
func TestKeyboardParavirtualized(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathKeyboard)
	p, _ := gk.NewProcess("term")
	var events []input.Event
	p.SpawnTask("reader", func(tk *kernel.Task) {
		fd, err := tk.Open(paradice.PathKeyboard, devfile.ORdOnly)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := p.Alloc(evdev.EventSize * 4)
		for len(events) < 2 {
			n, err := tk.Read(fd, buf, evdev.EventSize*4)
			if err != nil {
				t.Error(err)
				return
			}
			raw := make([]byte, n)
			_ = p.Mem.Read(buf, raw)
			for off := 0; off+evdev.EventSize <= n; off += evdev.EventSize {
				events = append(events, evdev.DecodeEvent(raw[off:]))
			}
		}
	})
	// Key press + release.
	m.Keyboard.InjectAt(sim.Time(sim.Millisecond), input.EvKey, 30, 1)
	m.Keyboard.InjectAt(sim.Time(2*sim.Millisecond), input.EvKey, 30, 0)
	m.Run()
	if len(events) != 2 || events[0].Value != 1 || events[1].Value != 0 {
		t.Fatalf("events = %+v", events)
	}
	if _, ok := gk.SysInfo("input/" + paradice.PathKeyboard + "/name"); !ok {
		t.Fatal("keyboard device info module missing")
	}
}

// The guest sees the device info modules for everything it paravirtualized
// (§5.1: applications need this to pick libraries).
func TestDeviceInfoModulesInstalled(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("g", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU, paradice.PathCamera, paradice.PathAudio, paradice.PathNetmap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"bus/pci0", "pci0/gpu/vendor", "pci0/gpu/driver",
		"video//dev/video0/modes", "sound//dev/snd/pcmC0D0p/rates",
		"net/em0/driver",
	} {
		if _, ok := g.K.SysInfo(key); !ok {
			t.Fatalf("guest missing device info %q", key)
		}
	}
	if v, _ := g.K.SysInfo("pci0/gpu/vendor"); v != "0x1002" {
		t.Fatalf("vendor = %s", v)
	}
}
