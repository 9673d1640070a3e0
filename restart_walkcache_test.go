package paradice_test

// Machine-level coverage for the translation caches across a driver VM
// restart: RestartDriverVM must flush every VM's software TLB and
// grant-validation cache wholesale — nothing proven before the restart may
// authorize or translate anything after it — yet service resumes and the
// caches warm again, exactly like the grant-map cache in
// restart_fastpath_test.go.

import (
	"testing"

	"paradice"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
)

func TestDriverVMRestartFlushesTranslationCaches(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{TLB: true}, paradice.PathGPU)
	tr := m.StartTrace()
	t.Cleanup(func() { m.StopTrace() })

	noops := func(iters int) {
		t.Helper()
		p, err := gk.NewProcess("noop")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		p.SpawnTask("loop", func(tk *kernel.Task) {
			fd, err := tk.Open(paradice.PathGPU, 2)
			if err != nil {
				done <- err
				return
			}
			arg, err := p.Alloc(32)
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := tk.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		})
		m.Run()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Warm both caches: repeated no-ops through the same user page.
	noops(3)
	met := tr.Metrics()
	warmHits := met.Counter("hv.tlb.hit")
	if warmHits == 0 {
		t.Fatal("three identical no-ops produced no TLB hits")
	}
	if met.Counter("hv.grant.cache.hit") == 0 {
		t.Fatal("batched declares produced no grant-cache validation hits")
	}
	invalBefore := met.Counter("hv.tlb.invalidate")

	// The restart must flush: the invalidation counter accounts for every
	// cached translation dropped.
	if err := m.RestartDriverVM(); err != nil {
		t.Fatal(err)
	}
	if met.Counter("hv.tlb.invalidate") <= invalBefore {
		t.Fatal("driver VM restart did not flush the translation caches")
	}

	// Post-restart service resumes through a fresh open (old fds are stale),
	// and the first operation RE-PROVES its translations — a TLB miss, not a
	// hit off pre-restart state — before the caches warm again.
	missBefore := met.Counter("hv.tlb.miss")
	hitBefore := met.Counter("hv.tlb.hit")
	noops(3)
	if met.Counter("hv.tlb.miss") <= missBefore {
		t.Fatal("post-restart operation was served from pre-restart translations")
	}
	if met.Counter("hv.tlb.hit") <= hitBefore {
		t.Fatal("caches did not warm again after the restart")
	}
}
