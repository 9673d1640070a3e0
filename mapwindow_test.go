package paradice_test

// A fast-path setting must not change what an application sees. With the
// map cache armed, two writes that miss the cache at the same instant each
// map their buffer into the driver VM's map window; the two windows must not
// collide whichever way the transport runs and whether or not translation
// caching is armed.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// recordingSink is a device that keeps a copy of every payload written to
// it, so a test can compare what arrived with what was written.
type recordingSink struct {
	kernel.BaseOps
	got [][]byte
}

func (s *recordingSink) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	buf := make([]byte, n)
	if err := kernel.CopyFromUser(c, src, buf); err != nil {
		return 0, err
	}
	s.got = append(s.got, buf)
	return n, nil
}

func TestConcurrentMapMissesDeliverBytes(t *testing.T) {
	for _, mode := range []paradice.Mode{paradice.Interrupts, paradice.Polling} {
		for _, tlb := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/tlb=%v", mode, tlb), func(t *testing.T) {
				m, err := paradice.New(paradice.Config{Mode: mode, MapCache: true, TLB: tlb})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(m.Close)
				sink := &recordingSink{}
				if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
					k.RegisterDevice(load.SinkPath, sink, sink)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				g, err := m.AddGuest("guest", paradice.Linux)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Paravirtualize(load.SinkPath); err != nil {
					t.Fatal(err)
				}
				p, err := g.K.NewProcess("writers")
				if err != nil {
					t.Fatal(err)
				}
				var want [][]byte
				var tasks []*kernel.Task
				for i := 0; i < 2; i++ {
					payload := bytes.Repeat([]byte{byte('a' + i)}, 8<<10)
					src, err := p.AllocBytes(payload)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, payload)
					tasks = append(tasks, p.Go(fmt.Sprintf("writer%d", i), func(tk *kernel.Task) error {
						fd, err := tk.Open(load.SinkPath, devfile.OWrOnly)
						if err != nil {
							return err
						}
						if n, err := tk.Write(fd, src, len(payload)); err != nil || n != len(payload) {
							return fmt.Errorf("write = %d, %v", n, err)
						}
						return tk.Close(fd)
					}))
				}
				m.RunUntil(m.Env.Now().Add(50 * sim.Millisecond))
				for _, tk := range tasks {
					if err := tk.Err(); err != nil {
						t.Errorf("%s: %v", tk.Name, err)
					}
				}
				slices.SortFunc(sink.got, bytes.Compare)
				if !slices.EqualFunc(sink.got, want, bytes.Equal) {
					t.Errorf("sink received %d payloads, want the %d written, byte for byte", len(sink.got), len(want))
				}
			})
		}
	}
}
