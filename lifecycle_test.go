package paradice_test

import (
	"runtime"
	"testing"
	"time"

	"paradice"
	"paradice/internal/workload"
)

// TestMachineCloseCycles builds, runs and closes a machine 100 times in one
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
	for i := 0; i < 100; i++ {
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
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after 100 closed machines, baseline %d", got, base)
	}
	if grew := int64(heapInuse()) - int64(warm); grew > 8<<20 {
		t.Fatalf("live heap grew %d KiB over 90 closed machines", grew>>10)
	}
}
