package trace

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"paradice/internal/sim"
)

// Registry holds the cheap aggregate metrics: counters, gauges, and
// virtual-time histograms, each keyed by a flat dotted name (layer and
// device path baked into the name, e.g. "cvd./dev/dri/card0.ops"). All
// access happens from simulation context, so there is no locking; the dump
// iterates names in sorted order, so the output is deterministic and
// byte-identical across runs of the same seed.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]uint64
	hists    map[string]*Hist
	// counts are unit-less histograms (batch sizes, vector lengths): the
	// same Hist machinery, dumped without the "ns" suffix. Kept separate so
	// duration and count distributions can never be confused in the output.
	counts map[string]*Hist
}

func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]uint64),
		hists:    make(map[string]*Hist),
		counts:   make(map[string]*Hist),
	}
}

// Hist is a log2-bucketed histogram of virtual durations: bucket k counts
// samples with 2^(k-1) ns <= d < 2^k ns (bucket 0 counts d <= 0). Power-of-
// two buckets keep the histogram cheap and make the dump trivially
// deterministic.
//
// Up to HistSampleCap raw observations are additionally retained verbatim,
// so quantiles of small runs are exact. Past the cap the reservoir is
// released and quantiles degrade to the largest sample seen in the rank's
// log2 bucket — still fully deterministic (no random sampling anywhere),
// still an upper bound, and exact for a constant population.
type Hist struct {
	Buckets [64]uint64
	Count   uint64
	Sum     sim.Duration

	max     [64]sim.Duration // largest sample per bucket
	samples []sim.Duration
	spilled bool
}

// HistSampleCap is the number of raw observations a Hist retains for exact
// quantile extraction before falling back to bucket-resolution quantiles.
const HistSampleCap = 8192

// Observe records one duration sample.
func (h *Hist) Observe(d sim.Duration) { h.observe(d) }

func (h *Hist) observe(d sim.Duration) {
	k := 0
	if d > 0 {
		k = bits.Len64(uint64(d))
	}
	h.Buckets[k]++
	h.max[k] = max(h.max[k], d)
	h.Count++
	h.Sum += d
	if !h.spilled {
		if len(h.samples) < HistSampleCap {
			h.samples = append(h.samples, d)
		} else {
			h.spilled = true
			h.samples = nil
		}
	}
}

// Exact reports whether every observation is still retained verbatim, i.e.
// Quantile returns exact order statistics rather than per-bucket maxima.
func (h *Hist) Exact() bool { return h != nil && !h.spilled }

// Quantile returns the q-quantile (0 < q <= 1) of the observed durations
// using the nearest-rank definition: the sample of rank ceil(q*Count).
// While the histogram holds at most HistSampleCap observations the result
// is the exact order statistic; beyond that it is the largest sample
// observed in the log2 bucket containing that rank. Returns 0 when empty.
func (h *Hist) Quantile(q float64) sim.Duration {
	if h == nil || h.Count == 0 {
		return 0
	}
	r := uint64(math.Ceil(q * float64(h.Count)))
	if r < 1 {
		r = 1
	}
	if r > h.Count {
		r = h.Count
	}
	if !h.spilled {
		sorted := make([]sim.Duration, len(h.samples))
		copy(sorted, h.samples)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[r-1]
	}
	var cum uint64
	for k, c := range h.Buckets {
		cum += c
		if cum >= r {
			return h.max[k]
		}
	}
	return 0 // unreachable: cum reaches Count >= r
}

// Mean returns the mean observed duration (0 when empty).
func (h *Hist) Mean() sim.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / sim.Duration(h.Count)
}

func (r *Registry) add(name string, n uint64) { r.counters[name] += n }
func (r *Registry) set(name string, v uint64) { r.gauges[name] = v }
func (r *Registry) observe(name string, d sim.Duration) {
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	h.observe(d)
}

func (r *Registry) observeCount(name string, n uint64) {
	h := r.counts[name]
	if h == nil {
		h = &Hist{}
		r.counts[name] = h
	}
	h.observe(sim.Duration(n))
}

// Counter returns the current value of a counter (0 if never incremented).
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Dump writes the plain-text metrics dump: counters, gauges, then
// histograms, each section sorted by name. The format is stable — tests
// compare dumps byte-for-byte across runs of the same seed.
func (r *Registry) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, name := range sortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, r.counters[name]); err != nil {
			return err
		}
	}
	// Gauges plus the derived hit-rate percentages: operators should not
	// have to hand-divide counter pairs, so the cache hit rates are computed
	// at dump time (integer basis points — the output stays byte-stable).
	gauges := make(map[string]string, len(r.gauges)+2)
	for name, v := range r.gauges {
		gauges[name] = strconv.FormatUint(v, 10)
	}
	for _, d := range [...]struct{ name, hit, miss string }{
		{"cvd.mapcache.hitrate", "cvd.mapcache.hits", "cvd.mapcache.misses"},
		{"hv.tlb.hitrate", "hv.tlb.hit", "hv.tlb.miss"},
	} {
		hit, miss := r.counters[d.hit], r.counters[d.miss]
		if hit+miss == 0 {
			continue
		}
		bp := hit * 10000 / (hit + miss)
		gauges[d.name] = fmt.Sprintf("%d.%02d%%", bp/100, bp%100)
	}
	for _, name := range sortedKeys(gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %s\n", name, gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "hist %s count=%d sum=%dns mean=%dns\n",
			name, h.Count, int64(h.Sum), int64(h.Mean())); err != nil {
			return err
		}
		// Quantiles carry the exactness marker: a "~" prefix means the
		// reservoir spilled past HistSampleCap and the values are per-bucket
		// maxima, not exact order statistics.
		if _, err := fmt.Fprintf(w, "hist %s p50=%s p95=%s p99=%s p999=%s\n",
			name, quantMark(h, 0.50), quantMark(h, 0.95),
			quantMark(h, 0.99), quantMark(h, 0.999)); err != nil {
			return err
		}
		for k, c := range h.Buckets {
			if c == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "hist %s bucket lt=2^%d %d\n", name, k, c); err != nil {
				return err
			}
		}
	}
	// Count histograms last, with unit-less values. Absent entirely when
	// nothing observed a count — dormant dumps are byte-identical to the
	// pre-count format.
	for _, name := range sortedKeys(r.counts) {
		h := r.counts[name]
		if _, err := fmt.Fprintf(w, "counthist %s count=%d sum=%d mean=%d\n",
			name, h.Count, int64(h.Sum), int64(h.Mean())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "counthist %s p50=%d p95=%d p99=%d max=%d\n",
			name, int64(h.Quantile(0.50)), int64(h.Quantile(0.95)),
			int64(h.Quantile(0.99)), int64(h.Quantile(1))); err != nil {
			return err
		}
	}
	return nil
}
