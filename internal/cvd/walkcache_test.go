package cvd

// Tests for the translation-cache fast path (the hypervisor's software TLB
// and the grant cache it arms) at the CVD layer: batched declares collapse a
// scatter-gather grant vector into one hypervisor crossing, armed requests
// produce identical data to dormant ones, and the hostile revoke-while-mapped
// case still faults with every cache armed — the caches amortize cost, never
// authority.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/grant"
	"paradice/internal/kernel"
	"paradice/internal/trace"
)

// withWalkcache arms the software TLB, and with it batched grant hypercalls
// for the grant table Connect creates.
func withWalkcache() func(*Config) {
	return func(c *Config) { c.HV.EnableTLB() }
}

// nestedChunks issues one tdNested ioctl carrying n scattered payload chunks
// and returns what the driver gathered.
func nestedChunks(t *testing.T, r *rig, n int) {
	t.Helper()
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		descs := make([]byte, 16*n)
		for i := 0; i < n; i++ {
			// Scatter the payloads: each AllocBytes lands at a fresh address,
			// so no two entries of the grant vector can merge.
			pay, _ := p.AllocBytes([]byte{byte('a' + i), byte('0' + i), '!'})
			binary.LittleEndian.PutUint64(descs[16*i:], uint64(pay))
			binary.LittleEndian.PutUint32(descs[16*i+8:], 3)
		}
		descVA, _ := p.AllocBytes(descs)
		hdr := make([]byte, 16)
		binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(descVA))
		argVA, _ := p.AllocBytes(hdr)
		ret, err := tk.Ioctl(fd, tdNested, argVA)
		if err != nil || int(ret) != n {
			t.Fatalf("nested ioctl: ret=%d err=%v", ret, err)
		}
	})
	if len(r.drv.chunks) != n {
		t.Fatalf("driver gathered %d chunks, want %d", len(r.drv.chunks), n)
	}
	for i, c := range r.drv.chunks {
		if want := []byte{byte('a' + i), byte('0' + i), '!'}; !bytes.Equal(c, want) {
			t.Fatalf("chunk %d = %q, want %q", i, c, want)
		}
	}
}

// TestBatchedDeclareSingleCrossing is the acceptance criterion for batched
// grant hypercalls: a scatter-gather declare of 8+ entries (the nested
// ioctl's header + descriptor block + 8 scattered payloads) costs ONE
// frontend crossing with the TLB armed, where the per-entry path pays one
// crossing per entry — and the gathered data is identical either way.
func TestBatchedDeclareSingleCrossing(t *testing.T) {
	crossings := func(opts ...func(*Config)) uint64 {
		r := newRig(t, Interrupts, kernel.Linux, opts...)
		tr := trace.New()
		trace.Install(r.env, tr)
		defer trace.Uninstall(r.env)
		nestedChunks(t, r, 8)
		return tr.Metrics().Counter("cvd.fe.grant.crossings")
	}
	perEntry := crossings()
	if perEntry < 8 {
		t.Fatalf("unbatched 8-chunk declare took %d crossings, expected >= 8", perEntry)
	}
	batched := crossings(withWalkcache())
	if batched != 1 {
		t.Fatalf("batched 8-chunk declare took %d crossings, want 1 (unbatched: %d)", batched, perEntry)
	}
}

// TestWalkcacheArmedDataIntegrity runs the macro-shaped IOWR ioctl repeatedly
// with the TLB and grant cache armed: every round trip's bytes must be exact,
// and by the steady state both caches must actually be serving hits.
func TestWalkcacheArmedDataIntegrity(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withWalkcache())
	tr := trace.New()
	trace.Install(r.env, tr)
	defer trace.Uninstall(r.env)
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		arg, _ := p.Alloc(32)
		for i := 0; i < 4; i++ {
			payload := bytes.Repeat([]byte{byte(0x10 + i)}, 32)
			if err := p.Mem.Write(arg, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Ioctl(fd, tdStruct, arg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 32)
			if err := p.Mem.Read(arg, got); err != nil {
				t.Fatal(err)
			}
			for _, b := range got {
				if b != byte(0x10+i)^0xFF {
					t.Fatalf("iteration %d: result byte %#x through armed caches", i, b)
				}
			}
		}
	})
	m := tr.Metrics()
	if m.Counter("hv.tlb.hit") == 0 {
		t.Fatal("four identical ioctls produced no TLB hits")
	}
	if m.Counter("hv.grant.cache.hit") == 0 {
		t.Fatal("batched declares produced no grant-cache validation hits")
	}
}

// TestWalkcacheRevokedWhileMappedFaults replays the hostile
// revoke-while-mapped scenario with EVERY cache armed: map cache, software
// TLB, and grant-validation cache. The revocation must still tear the
// mapping down in the same instant, and a request riding the revoked
// reference must still be denied — a cached validation or translation must
// never outlive the grant that justified it.
func TestWalkcacheRevokedWhileMappedFaults(t *testing.T) {
	r := newRig(t, Interrupts, kernel.Linux, withMapCache(), withWalkcache())
	const n = 4096
	r.runApp(t, func(p *kernel.Process, tk *kernel.Task) {
		fd, _ := tk.Open("/dev/testdev", devfile.ORdWr)
		src, _ := p.AllocBytes(bytes.Repeat([]byte{7}, n))
		if _, err := tk.Write(fd, src, n); err != nil {
			t.Fatal(err)
		}
		key := bulkKey{fileID: 0, kind: grant.KindCopyFrom}
		m := r.be.mapc.entries[key]
		if m == nil {
			t.Fatal("no cached mapping after the first hinted write")
		}
		bg := r.fe.bulk[bulkKey{fileID: 0, kind: grant.KindCopyFrom}]
		if bg.ref == 0 {
			t.Fatal("no live bulk grant after the first hinted write")
		}
		if err := r.fe.grants.Revoke(bg.ref); err != nil {
			t.Fatal(err)
		}
		if !m.Dead() {
			t.Fatal("cached mapping still alive after its grant was revoked")
		}
		if err := m.Copy(src, make([]byte, 16), false); err == nil {
			t.Fatal("access through the revoked mapping did not fault")
		}
		// The grant-validation cache subscribed to the same revocation: a
		// request reusing the revoked reference is denied at validation, not
		// served from the cached vector.
		if _, err := tk.Write(fd, src, n); !kernel.IsErrno(err, kernel.EFAULT) {
			t.Fatalf("write under revoked grant: %v, want EFAULT", err)
		}
	})
	_, _, invals := r.be.MapCacheStats()
	if invals < 1 {
		t.Fatalf("invalidations = %d, want >= 1", invals)
	}
}
