package paradice_test

import (
	"runtime"
	"sync"
	"testing"

	"paradice"
	"paradice/internal/cvd"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/sim"
	"paradice/internal/workload"
)

// TestMachineCloseCycles builds, runs and closes a machine 1000 times in one
// process. Close must unwind every parked simulation process, so the
// goroutine count returns to its baseline and the live heap stays flat.
func TestMachineCloseCycles(t *testing.T) {
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	base := runtime.NumGoroutine()
	var warm uint64
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		m, err := paradice.New(paradice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.AddGuest("guest1", paradice.Linux)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Paravirtualize(paradice.PathGPU); err != nil {
			t.Fatal(err)
		}
		res, err := workload.RunMatmul(m.Env, g.K, 8, int64(i))
		if err != nil || !res.Correct {
			t.Fatalf("cycle %d: matmul correct=%v err=%v", i, res.Correct, err)
		}
		m.Close()
		if i == 9 {
			warm = heapInuse()
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after %d closed machines, baseline %d", got, cycles, base)
	}
	if grew := int64(heapInuse()) - int64(warm); grew > 8<<20 {
		t.Fatalf("live heap grew %d KiB over %d closed machines", grew>>10, cycles-10)
	}
}

// TestMachinesInParallel runs machines on several goroutines at once. They
// share the process's one DRM spec table, which the GPU frontend reads for
// every ioctl and JIT-executes for each command submission; under -race this
// shows that no machine writes it.
func TestMachinesInParallel(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m, err := paradice.New(paradice.Config{})
				if err != nil {
					t.Error(err)
					return
				}
				g, err := m.AddGuest("guest1", paradice.Linux)
				if err == nil {
					err = g.Paravirtualize(paradice.PathGPU)
				}
				if err != nil {
					m.Close()
					t.Error(err)
					return
				}
				res, err := workload.RunMatmul(m.Env, g.K, 8, int64(w*10+i))
				m.Close()
				if err != nil || !res.Correct {
					t.Errorf("worker %d build %d: matmul correct=%v err=%v", w, i, res.Correct, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRetiredHandlerSetsServeNothing replaces the driver VM by a crash
// restart and then by a planned handover, capped and uncapped: each
// successor's operations run on its own shard's handler set, none on a
// retired one, and closing the machine leaves no coroutine behind.
func TestRetiredHandlerSetsServeNothing(t *testing.T) {
	for _, workers := range []int{0, 2} {
		base := runtime.NumGoroutine()
		m, g := sinkMachine(t, paradice.Config{Workers: workers})
		// serve runs one open, ten ioctls and a close: 12 forwarded ops.
		serve := func() {
			app, err := g.K.NewProcess("app")
			if err != nil {
				t.Fatal(err)
			}
			app.SpawnTask("main", func(tk *kernel.Task) {
				fd, err := tk.Open(load.SinkPath, devfile.ORdWr)
				if err != nil {
					t.Error(err)
					return
				}
				buf, _ := app.Alloc(64)
				for i := 0; i < 10; i++ {
					if _, err := tk.Ioctl(fd, load.Cmd(64), buf); err != nil {
						t.Error(err)
					}
				}
				tk.Close(fd)
			})
			m.Run()
		}
		var sets []*cvd.Pool
		for _, replace := range []func() error{
			func() error { return nil },
			m.RestartDriverVM,
			func() (err error) {
				m.Env.Spawn("handover", func(*sim.Proc) { err = m.HandoverDriverVM() })
				m.Run()
				return err
			},
		} {
			if err := replace(); err != nil {
				t.Fatal(err)
			}
			serve()
			sets = append(sets, m.Shards()[0].Pool)
			for i, pl := range sets {
				if pl.Served != 12 || i < len(sets)-1 && pl == sets[len(sets)-1] {
					t.Fatalf("workers %d, generation %d: handler set %d served %d ops, want 12 and its own set",
						workers, len(sets)-1, i, pl.Served)
				}
			}
		}
		m.Close()
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("workers %d: %d goroutines after Close, baseline %d", workers, got, base)
		}
	}
}
