package trace

import (
	"bytes"
	"math/bits"
	"strings"
	"testing"

	"paradice/internal/sim"
)

// Bucket placement at the powers-of-two boundaries: bucket k covers
// 2^(k-1) <= d < 2^k, bucket 0 holds d <= 0.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      sim.Duration
		bucket int
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},  // 2^10 - 1
		{1024, 11},  // 2^10
		{1025, 11},  // 2^10 + 1
		{65535, 16}, // 2^16 - 1
		{65536, 17}, // 2^16
		{1 << 40, 41},
		{1<<40 - 1, 40},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.d)
		if got := h.Buckets[c.bucket]; got != 1 {
			// Locate where it actually landed for the error message.
			at := -1
			for k, n := range h.Buckets {
				if n == 1 {
					at = k
				}
			}
			t.Errorf("Observe(%d): want bucket %d, landed in %d", int64(c.d), c.bucket, at)
		}
		if c.d > 0 && c.bucket != bits.Len64(uint64(c.d)) {
			t.Errorf("test table inconsistent for d=%d", int64(c.d))
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if m := h.Mean(); m != 0 {
		t.Errorf("empty Mean = %d, want 0", int64(m))
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty Quantile = %d, want 0", int64(q))
	}
	var nilH *Hist
	if q := nilH.Quantile(0.5); q != 0 {
		t.Errorf("nil Quantile = %d, want 0", int64(q))
	}
}

// While every sample is retained, Quantile is the exact nearest-rank order
// statistic, independent of insertion order.
func TestHistQuantileExact(t *testing.T) {
	var h Hist
	// Deliberately unsorted insertion.
	for _, d := range []sim.Duration{700, 100, 1000, 300, 500, 900, 200, 800, 400, 600} {
		h.Observe(d)
	}
	if !h.Exact() {
		t.Fatal("10 samples should stay in exact mode")
	}
	cases := []struct {
		q    float64
		want sim.Duration
	}{
		{0.10, 100},  // rank ceil(1.0) = 1
		{0.50, 500},  // rank 5
		{0.90, 900},  // rank 9
		{0.95, 1000}, // rank ceil(9.5) = 10
		{0.99, 1000},
		{0.999, 1000},
		{1.0, 1000},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.q, int64(got), int64(c.want))
		}
	}
	if m := h.Mean(); m != 550 {
		t.Errorf("Mean = %d, want 550", int64(m))
	}
}

// A single sample is every quantile.
func TestHistQuantileSingle(t *testing.T) {
	var h Hist
	h.Observe(42)
	for _, q := range []float64{0.001, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("Quantile(%g) = %d, want 42", q, int64(got))
		}
	}
}

// Past HistSampleCap the reservoir spills and quantiles degrade to the
// largest sample seen in the log2 bucket holding the rank — deterministic,
// never below the true value.
func TestHistQuantileSpilled(t *testing.T) {
	var h Hist
	for i := 0; i < HistSampleCap; i++ {
		h.Observe(600) // bucket 10: 512 <= d < 1024
	}
	h.Observe(1000)
	if h.Exact() {
		t.Fatal("HistSampleCap+1 samples should spill")
	}
	if got, want := h.Quantile(0.5), sim.Duration(1000); got != want {
		t.Errorf("spilled Quantile(0.5) = %d, want %d (bucket maximum)", int64(got), int64(want))
	}
	if h.Count != uint64(HistSampleCap+1) {
		t.Errorf("Count = %d, want %d", h.Count, HistSampleCap+1)
	}
}

// A constant population reads as its value at every quantile after the
// spill: a fixed 2.25 µs hop must not read as its bucket's 4.095 µs bound.
func TestHistQuantileSpilledConstant(t *testing.T) {
	var h Hist
	for i := 0; i < 2*HistSampleCap; i++ {
		h.Observe(2250)
	}
	if h.Exact() {
		t.Fatal("2*HistSampleCap samples should spill")
	}
	for _, q := range []float64{0.001, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 2250 {
			t.Errorf("spilled Quantile(%g) = %d, want 2250", q, int64(got))
		}
	}
}

// Spilled quantiles across several buckets: ranks resolve to the right
// bucket's maximum.
func TestHistQuantileSpilledMultiBucket(t *testing.T) {
	var h Hist
	// 90% in bucket 7 (64..127), 10% in bucket 14 (8192..16383).
	for i := 0; i < HistSampleCap; i++ {
		h.Observe(100)
	}
	for i := 0; i < HistSampleCap/9; i++ {
		h.Observe(10000)
	}
	if h.Exact() {
		t.Fatal("should have spilled")
	}
	if got, want := h.Quantile(0.50), sim.Duration(100); got != want {
		t.Errorf("Quantile(0.50) = %d, want %d", int64(got), int64(want))
	}
	if got, want := h.Quantile(0.999), sim.Duration(10000); got != want {
		t.Errorf("Quantile(0.999) = %d, want %d", int64(got), int64(want))
	}
}

// The dump carries a quantile line per histogram and stays deterministic.
func TestHistDumpQuantileLine(t *testing.T) {
	r := newRegistry()
	r.observe("h.q", 1500)
	r.observe("h.q", 500)
	var b bytes.Buffer
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	want := "hist h.q p50=500ns p95=1500ns p99=1500ns p999=1500ns\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("dump missing %q:\n%s", want, b.String())
	}
}

// Once a histogram spills its reservoir, the dump's quantile line marks
// every value approximate — an operator can never mistake a bucket maximum
// for an exact order statistic.
func TestHistDumpApproxMarker(t *testing.T) {
	r := newRegistry()
	for i := 0; i < HistSampleCap+1; i++ {
		r.observe("h.big", 1000)
	}
	var b bytes.Buffer
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	want := "hist h.big p50=~1000ns p95=~1000ns p99=~1000ns p999=~1000ns\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("spilled dump missing %q:\n%s", want, b.String())
	}
}

// The derived hit-rate gauges appear (as percentages, sorted with the other
// gauges) exactly when their counter pairs have data.
func TestDumpDerivedHitrates(t *testing.T) {
	r := newRegistry()
	var b bytes.Buffer
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "hitrate") {
		t.Fatalf("hitrate gauges with no counters:\n%s", b.String())
	}

	r.add("hv.tlb.hit", 3)
	r.add("hv.tlb.miss", 1)
	r.add("cvd.mapcache.hits", 1)
	r.add("cvd.mapcache.misses", 2)
	r.set("aaa.first", 7) // sorts before the derived gauges
	b.Reset()
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"gauge aaa.first 7\n",
		"gauge cvd.mapcache.hitrate 33.33%\n",
		"gauge hv.tlb.hitrate 75.00%\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "aaa.first") > strings.Index(out, "mapcache.hitrate") {
		t.Errorf("derived gauges not sorted with the rest:\n%s", out)
	}
}
