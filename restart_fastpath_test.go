package paradice_test

// Machine-level coverage for the grant-map cache across a driver VM restart:
// the successor backend must come up with a COLD cache (its predecessor's
// mappings died with the old driver VM's EPT), yet service resumes and the
// cache warms again against the new VM. Complements the cvd-level reconnect
// test by going through RestartDriverVM — the full §8 recovery path with
// supervision wiring, device re-attach, and every guest's frontends.

import (
	"testing"

	"paradice"
	"paradice/internal/workload"
)

func TestDriverVMRestartColdMapCache(t *testing.T) {
	m, err := paradice.New(paradice.Config{MapCache: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathAudio); err != nil {
		t.Fatal(err)
	}

	// 0.256 s of 48 kHz 16-bit stereo: every chunk is written from the same
	// 16 KB user buffer, so the whole playback needs exactly one map miss to
	// establish the mapping; each further period copy is a hit.
	res, err := workload.RunAudio(m.Env, g.K, 0.256)
	if err != nil || res.Bytes != 3*16384 {
		t.Fatalf("pre-restart audio: %+v %v", res, err)
	}
	be1 := g.Frontends[paradice.PathAudio].Backend()
	warmHits, misses, _ := be1.MapCacheStats()
	if misses != 1 || warmHits == 0 {
		t.Fatalf("warm cache stats = %d hits / %d misses, want 1 miss and >0 hits", warmHits, misses)
	}

	if err := m.RestartDriverVM(); err != nil {
		t.Fatal(err)
	}
	be2 := g.Frontends[paradice.PathAudio].Backend()
	if be2 == be1 {
		t.Fatal("restart did not replace the backend")
	}
	// The successor's cache is cold — nothing from the old driver VM's EPT
	// can have survived into it.
	hits, misses, invals := be2.MapCacheStats()
	if hits != 0 || misses != 0 || invals != 0 {
		t.Fatalf("post-restart cache not cold: %d/%d/%d", hits, misses, invals)
	}

	// Service resumes and the cache warms against the new driver VM: the
	// identical workload re-pays exactly one miss and the same hit count
	// (the simulation is deterministic).
	res, err = workload.RunAudio(m.Env, g.K, 0.256)
	if err != nil || res.Bytes != 3*16384 {
		t.Fatalf("post-restart audio: %+v %v", res, err)
	}
	hits, misses, _ = be2.MapCacheStats()
	if misses != 1 || hits != warmHits {
		t.Fatalf("post-restart stats = %d hits / %d misses, want %d/1", hits, misses, warmHits)
	}
	// The old backend's counters are frozen where the restart left them.
	if h, mi, _ := be1.MapCacheStats(); h != warmHits || mi != 1 {
		t.Fatalf("dead backend's stats moved: %d/%d", h, mi)
	}
}
