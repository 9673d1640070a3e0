package trace

import (
	"bytes"
	"strings"
	"testing"

	"paradice/internal/sim"
)

// span emits a leaf work span into fr.
func span(fr *FlightRecorder, rid uint64, layer, name string, start sim.Time, dur sim.Duration) {
	fr.onEvent(Event{Kind: KindSpan, RID: rid, VM: "guest", Layer: layer, Name: name, Start: start, End: start.Add(dur)})
}

// root finalizes a request with its syscall-layer root group.
func root(fr *FlightRecorder, rid uint64, op string, start, end sim.Time) {
	rootAs(fr, rid, op, start, end, 0, 0)
}

// rootAs finalizes a request as the system-call envelope does for a task of
// QoS class whose call returned errno.
func rootAs(fr *FlightRecorder, rid uint64, op string, start, end sim.Time, class uint8, errno int32) {
	fr.onEvent(Event{Kind: KindGroup, Class: class, Errno: errno, RID: rid, VM: "guest", Layer: LayerSyscall, Name: op, Start: start, End: end})
}

// The per-hop durations of a digest tile the end-to-end latency exactly:
// each leaf span lands in its hop, and the queue hop absorbs the residual
// no work span covered.
func TestFlightDigestTiling(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	span(fr, 1, LayerSyscall, "syscall", 0, 100)
	span(fr, 1, LayerFE, "post", 100, 200)
	span(fr, 1, LayerHV, "hypercall", 300, 400)
	span(fr, 1, LayerHV, "grant-validate", 700, 50)
	span(fr, 1, LayerHV, "copy", 750, 150)
	span(fr, 1, LayerIRQ, "inter-vm-irq", 900, 300)
	span(fr, 1, LayerBE, "dispatch", 1200, 250)
	span(fr, 1, LayerBE, "map-hit", 1450, 80)
	span(fr, 1, LayerDevice, "dma", 1530, 400)
	rootAs(fr, 1, "ioctl /dev/dri/card0", 0, 2500, 2, 0) // 570 ns uncovered

	ds := fr.Digests()
	if len(ds) != 1 {
		t.Fatalf("digests = %d, want 1", len(ds))
	}
	d := ds[0]
	want := map[Hop]sim.Duration{
		HopFrontend:  300,
		HopHypercall: 400,
		HopCopy:      280,
		HopIRQ:       300,
		HopBackend:   250,
		HopDevice:    400,
		HopQueue:     570,
	}
	var sum sim.Duration
	for h := Hop(0); h < HopCount; h++ {
		if d.Hops[h] != want[h] {
			t.Errorf("hop %s = %d, want %d", h, d.Hops[h], want[h])
		}
		sum += d.Hops[h]
	}
	if sum != d.Latency() {
		t.Fatalf("hops sum %d != latency %d: attribution does not tile", sum, d.Latency())
	}
	if d.Class != 2 || d.Op != "ioctl /dev/dri/card0" || d.VM != "guest" {
		t.Errorf("digest identity wrong: %+v", d)
	}
}

// The digest ring is bounded: a 300k-request run holds exactly Capacity
// digests (the newest ones), and Total keeps counting.
func TestFlightRingBounded(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 512})
	const n = 300_000
	for rid := uint64(1); rid <= n; rid++ {
		at := sim.Time(rid * 10)
		root(fr, rid, "write /dev/null", at, at.Add(5))
	}
	if fr.Len() != 512 {
		t.Fatalf("ring holds %d, want capacity 512", fr.Len())
	}
	if fr.Total() != n {
		t.Fatalf("total = %d, want %d", fr.Total(), n)
	}
	ds := fr.Digests()
	if ds[0].RID != n-512+1 || ds[len(ds)-1].RID != n {
		t.Fatalf("ring holds rids %d..%d, want %d..%d", ds[0].RID, ds[len(ds)-1].RID, n-512+1, n)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].RID != ds[i-1].RID+1 {
			t.Fatalf("ring not oldest-first at %d: %d after %d", i, ds[i].RID, ds[i-1].RID)
		}
	}
}

// Span trees are retained only for flagged requests: latency threshold,
// errno (a shed request's EAGAIN included), or episode overlap. Clean fast
// requests leave no tree.
func TestFlightOutlierCriteria(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{
		Threshold:       1000,
		ClassThresholds: map[uint8]sim.Duration{1: 100},
	})

	// rid 1: clean and fast — not an outlier.
	span(fr, 1, LayerFE, "post", 0, 50)
	root(fr, 1, "write /dev/a", 0, 500)
	// rid 2: over the default threshold.
	root(fr, 2, "write /dev/a", 1000, 3000)
	// rid 3: class 1, over its tighter 100 ns threshold.
	rootAs(fr, 3, "read /dev/a", 3000, 3200, 1, 0)
	// rid 4: fast but returned an errno.
	rootAs(fr, 4, "ioctl /dev/a", 4000, 4010, 0, 110)
	// rid 5: shed by admission control with EAGAIN.
	rootAs(fr, 5, "write /dev/a", 5000, 5010, 2, 11)
	// rid 6: overlaps a recovery episode.
	span(fr, 6, LayerFE, "post", 6000, 10)
	fr.BeginEpisode()
	fr.EndEpisode()
	root(fr, 6, "write /dev/a", 6000, 6020)

	outliers := fr.Outliers()
	if len(outliers) != 5 {
		t.Fatalf("outliers = %d, want 5 (all but rid 1)", len(outliers))
	}
	for _, o := range outliers {
		if o.Digest.RID == 1 {
			t.Fatalf("clean fast rid 1 captured as outlier")
		}
		if len(o.Events) == 0 {
			t.Errorf("outlier rid %d has no span tree", o.Digest.RID)
		}
	}
	ds := fr.Digests()
	if ds[0].Outlier || !ds[1].Outlier || !ds[2].Outlier || !ds[3].Outlier || !ds[4].Outlier || !ds[5].Outlier {
		t.Fatalf("outlier flags wrong: %+v", ds)
	}
	if ds[2].Class != 1 || ds[4].Class != 2 || ds[4].Errno != 11 {
		t.Errorf("digests lost their root's class or errno: %+v", ds)
	}
	if !ds[5].Episode {
		t.Errorf("episode overlap not flagged: %+v", ds[5])
	}
}

// Past OutlierCap, outliers are counted but their trees dropped — memory
// stays bounded no matter how bad the run is.
func TestFlightOutlierCapBounded(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{OutlierCap: 2})
	for rid := uint64(1); rid <= 10; rid++ {
		at := sim.Time(rid * 100)
		rootAs(fr, rid, "write /dev/a", at, at.Add(10), 0, 16)
	}
	if len(fr.Outliers()) != 2 {
		t.Fatalf("retained %d trees, want cap 2", len(fr.Outliers()))
	}
	if fr.OutliersDropped() != 8 {
		t.Fatalf("dropped = %d, want 8", fr.OutliersDropped())
	}
}

// Events for an RID that already finalized (late backend writes from a dead
// epoch) are dropped, not resurrected into phantom in-flight entries —
// while a genuinely concurrent older RID still finalizes normally.
func TestFlightStaleRIDDropped(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	span(fr, 2, LayerFE, "post", 0, 10) // rid 2 starts first
	root(fr, 5, "write /dev/a", 100, 150)
	span(fr, 3, LayerBE, "dispatch", 200, 10) // stale: rid 3 never seen, below maxDone
	root(fr, 2, "read /dev/a", 0, 300)        // out-of-order completion: still fine
	if fr.Total() != 2 {
		t.Fatalf("digests = %d, want 2 (rids 5 and 2)", fr.Total())
	}
	if fr.stale != 1 {
		t.Fatalf("stale = %d, want 1", fr.stale)
	}
	if len(fr.inflight) != 0 {
		t.Fatalf("inflight = %d, want 0", len(fr.inflight))
	}
}

// Same event sequence, byte-identical dump — the property the stress
// harness leans on for the 50-seed replay sweep.
func TestFlightDumpDeterministic(t *testing.T) {
	run := func() []byte {
		fr := NewFlightRecorder(FlightConfig{Capacity: 8, Threshold: 100})
		span(fr, 1, LayerHV, "hypercall", 0, 80)
		rootAs(fr, 1, "ioctl /dev/a", 0, 200, 1, 0)
		rootAs(fr, 2, "write /dev/a", 300, 340, 0, 19)
		var b bytes.Buffer
		if err := fr.WriteDump(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("dump not deterministic:\n%s\n----\n%s", a, b)
	}
	for _, want := range []string{"flightrec capacity=8", "attr class=1", "outlier rid=1", "hop=hypercall"} {
		if !strings.Contains(string(a), want) {
			t.Errorf("dump missing %q:\n%s", want, a)
		}
	}
}

// The attribution table carries the exactness marker once a histogram
// spills its reservoir.
func TestFlightAttributionShares(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	for rid := uint64(1); rid <= 4; rid++ {
		at := sim.Time(rid * 1000)
		span(fr, rid, LayerHV, "hypercall", at, 300)
		span(fr, rid, LayerDevice, "dma", at.Add(300), 100)
		root(fr, rid, "ioctl /dev/a", at, at.Add(400))
	}
	var b bytes.Buffer
	if err := fr.WriteAttribution(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hop=hypercall p50=300ns p99=300ns share=75.00%") {
		t.Errorf("hypercall share wrong:\n%s", out)
	}
	if !strings.Contains(out, "hop=device    p50=100ns p99=100ns share=25.00%") {
		t.Errorf("device share wrong:\n%s", out)
	}
	if strings.Contains(out, "~") {
		t.Errorf("exact run should carry no approx marker:\n%s", out)
	}
}

// A nil recorder no-ops everywhere — the disarmed hot path.
func TestFlightNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.BeginEpisode()
	fr.EndEpisode()
	fr.Push(Digest{})
	fr.onEvent(Event{Kind: KindSpan, RID: 1})
	if fr.Len() != 0 || fr.Total() != 0 || fr.Capacity() != 0 || fr.Digests() != nil || fr.Outliers() != nil {
		t.Fatal("nil recorder leaked state")
	}
	var b bytes.Buffer
	if err := fr.WriteDump(&b); err != nil || !strings.Contains(b.String(), "disarmed") {
		t.Fatalf("nil dump = %q, %v", b.String(), err)
	}
}
