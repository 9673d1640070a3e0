package trace

// The flight recorder is the always-on half of the observability story.
// The full event trace (Tracer.Events) is unbounded — fine for a 20-request
// golden test, hopeless for a 300k-request tail run — so production arming
// keeps a bounded ring of compact per-request digests instead: who, where,
// how long in each architectural hop, and how it ended. Full span trees are
// retained only for the requests worth keeping: the ones that blew their
// class latency threshold, returned an errno, or overlapped a
// restart/handover episode.
//
// A digest's class and errno come from the request's root group, which the
// kernel's system-call envelope emits where the call ends (Tracer.Root):
// the calling task's QoS class and the errno the application got back, for
// a native and a forwarded operation alike. A request shed by admission
// control or a full ring returns EAGAIN or EBUSY, so the errno rule captures
// it too.
//
// Attribution follows the same tiling rule the §6.1.1 reconciliation test
// enforces: the leaf work spans of a request tile its root span, so the
// per-hop durations of a digest sum exactly to the request's end-to-end
// latency. Whatever the work spans do not cover — scheduler hand-off,
// ring-slot waiting, admission parking — lands in the "queue" hop by
// construction, so nothing is ever unaccounted.
//
// Like the rest of the package, the recorder reads the virtual clock and
// never advances it: arming it cannot perturb a single timing, and the same
// seed produces a byte-identical WriteDump.

import (
	"fmt"
	"io"

	"paradice/internal/sim"
)

// Hop is one segment of the request critical path, the unit of
// attribution. Every leaf work span maps to exactly one hop.
type Hop uint8

// The critical-path hops, in pipeline order.
const (
	// HopQueue is the residual: end-to-end latency not covered by any work
	// span (waits for a slot, admission or a device) plus wake-up spans.
	HopQueue Hop = iota
	// HopFrontend is guest-side CVD work: syscall entry, slot post,
	// completion handling, grant declaration.
	HopFrontend
	// HopHypercall is hypervisor control-plane work: hypercall entry/exit,
	// page mapping and unmapping.
	HopHypercall
	// HopIRQ is inter-VM notification: doorbell IRQs, cross-VM polling,
	// device interrupt delivery.
	HopIRQ
	// HopBackend is driver-VM CVD work: dispatch, execute, completion post.
	HopBackend
	// HopCopy is data movement: grant validation and the actual byte copies
	// (hypervisor copy path or backend map-cache path).
	HopCopy
	// HopDevice is time spent in the device driver and device/DMA model.
	HopDevice

	// HopCount sizes per-hop arrays.
	HopCount
)

var hopNames = [HopCount]string{"queue", "frontend", "hypercall", "irq", "backend", "copy", "device"}

// String returns the hop's short name.
func (h Hop) String() string {
	if h >= HopCount {
		return "invalid"
	}
	return hopNames[h]
}

// classifyHop maps a leaf work span to its critical-path hop. The span
// inventory is small and closed (every emitter lives in this repo), so the
// mapping is by layer with name-level carve-outs for the copy path.
func classifyHop(layer, name string) Hop {
	switch layer {
	case LayerSyscall, LayerFE:
		return HopFrontend
	case LayerIRQ:
		return HopIRQ
	case LayerHV:
		switch name {
		case "grant-validate", "copy", "map-copy":
			return HopCopy
		}
		return HopHypercall
	case LayerBE:
		switch name {
		case "map-hit":
			return HopCopy
		}
		return HopBackend
	case LayerDriver, LayerDevice:
		return HopDevice
	}
	return HopQueue
}

// Digest is the compact per-request record kept in the ring: everything an
// operator needs to ask "where did this request's time go and how did it
// end" without the full span tree.
type Digest struct {
	RID   uint64
	VM    string // guest VM the request entered through
	Op    string // root span name: "<op> <path>"
	Class uint8  // calling task's QoS class
	Start sim.Time
	End   sim.Time
	// Hops is the critical-path decomposition. The entries sum exactly to
	// End-Start: HopQueue absorbs whatever the work spans did not cover.
	Hops    [HopCount]sim.Duration
	Errno   int32 // errno the system call returned, 0 on success
	Episode bool  // overlapped a restart/handover/recovery episode
	Outlier bool  // retained with a full span tree
}

// Latency returns the end-to-end latency.
func (d Digest) Latency() sim.Duration { return d.End.Sub(d.Start) }

// Outlier is one retained exemplar: the digest plus the full span tree of
// the request, in emission order.
type Outlier struct {
	Digest Digest
	Events []Event
}

// FlightConfig sizes and tunes a flight recorder.
type FlightConfig struct {
	// Capacity is the digest ring size (default 4096). Memory is O(Capacity)
	// regardless of run length.
	Capacity int
	// OutlierCap bounds how many full span trees are retained (default 32).
	// Once full, further outliers are counted but their trees dropped.
	OutlierCap int
	// Threshold is the default per-request latency threshold above which a
	// request is captured as an outlier. Zero disables latency-based capture
	// (errno/episode capture still applies).
	Threshold sim.Duration
	// ClassThresholds overrides Threshold per QoS class (e.g. from the load
	// harness's witness classes).
	ClassThresholds map[uint8]sim.Duration
}

// pendingEventCap bounds the span buffer of one in-flight request, so a
// pathological request cannot grow the recorder unboundedly.
const pendingEventCap = 256

// flightPending accumulates one in-flight request until its root group
// finalizes it into a digest.
type flightPending struct {
	hops    [HopCount]sim.Duration
	spanSum sim.Duration
	episode bool
	events  []Event
}

// classAgg aggregates finalized digests of one QoS class for the
// attribution table.
type classAgg struct {
	count uint64
	lat   Hist
	hops  [HopCount]Hist
}

// FlightRecorder keeps the bounded digest ring, the in-flight accumulation
// state, the per-class attribution aggregates, and the captured outliers.
// All mutation happens from simulation context (via the owning Tracer), so
// there is no locking. A nil *FlightRecorder is valid everywhere: every
// method no-ops, which is how the disarmed path stays free.
type FlightRecorder struct {
	cfg      FlightConfig
	reg      *Registry // owning tracer's registry for flightrec.* counters
	ring     []Digest
	next     int
	total    uint64
	inflight map[uint64]*flightPending
	maxDone  uint64 // highest finalized RID: gates creation of stale entries
	episodes int    // currently-open restart/handover episodes
	outliers []Outlier
	dropped  uint64 // outliers past OutlierCap: counted, tree discarded
	stale    uint64 // events for already-finalized RIDs, dropped
	agg      map[uint8]*classAgg
}

// NewFlightRecorder returns a recorder with cfg (defaults applied). Attach
// it to a tracer with Tracer.ArmFlightRecorder, or feed it digests directly
// with Push.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.OutlierCap <= 0 {
		cfg.OutlierCap = 32
	}
	return &FlightRecorder{
		cfg:      cfg,
		ring:     make([]Digest, 0, cfg.Capacity),
		inflight: make(map[uint64]*flightPending),
	}
}

// threshold returns the outlier latency threshold for a class (0: latency
// capture disabled for that class).
func (fr *FlightRecorder) threshold(class uint8) sim.Duration {
	if t, ok := fr.cfg.ClassThresholds[class]; ok {
		return t
	}
	return fr.cfg.Threshold
}

// pending returns the in-flight record for rid, creating it unless rid was
// already finalized (a late event from a restarted backend epoch, say —
// counted as stale and dropped). Creation is what the stale guard gates:
// an existing in-flight entry is always accepted, so out-of-order
// finalization across concurrent requests is handled correctly.
func (fr *FlightRecorder) pending(rid uint64) *flightPending {
	if p, ok := fr.inflight[rid]; ok {
		return p
	}
	if rid <= fr.maxDone {
		fr.stale++
		return nil
	}
	p := &flightPending{episode: fr.episodes > 0}
	fr.inflight[rid] = p
	return p
}

// capture buffers a span-tree event for a possible outlier. Skipped when
// the outlier store is already full — the tree would be discarded at
// finalize anyway, so there is no point holding it.
func (fr *FlightRecorder) capture(p *flightPending, e Event) {
	if len(fr.outliers) >= fr.cfg.OutlierCap || len(p.events) >= pendingEventCap {
		return
	}
	p.events = append(p.events, e)
}

// onEvent ingests one trace event. Leaf spans accumulate per-hop time;
// the request's root group (the syscall-layer KindGroup) finalizes the
// digest. Events with RID 0 are not attributable to a request and are
// ignored.
func (fr *FlightRecorder) onEvent(e Event) {
	if fr == nil || e.RID == 0 {
		return
	}
	switch e.Kind {
	case KindSpan:
		p := fr.pending(e.RID)
		if p == nil {
			return
		}
		d := e.Dur()
		p.hops[classifyHop(e.Layer, e.Name)] += d
		p.spanSum += d
		fr.capture(p, e)
	case KindGroup:
		if e.Layer == LayerSyscall {
			fr.finalize(e)
			return
		}
		if p := fr.pending(e.RID); p != nil {
			fr.capture(p, e)
		}
	case KindInstant:
		if p := fr.pending(e.RID); p != nil {
			fr.capture(p, e)
		}
	}
}

// finalize turns the in-flight record into a digest when the request's root
// group arrives, taking the class and errno the root carries. A request with
// no prior events (every charge ran in callback context) still gets a
// digest: all its time is queue residual.
func (fr *FlightRecorder) finalize(root Event) {
	p := fr.pending(root.RID)
	if p == nil {
		return
	}
	delete(fr.inflight, root.RID)
	if root.RID > fr.maxDone {
		fr.maxDone = root.RID
	}

	lat := root.Dur()
	d := Digest{
		RID:     root.RID,
		VM:      root.VM,
		Op:      root.Name,
		Class:   root.Class,
		Start:   root.Start,
		End:     root.End,
		Hops:    p.hops,
		Errno:   root.Errno,
		Episode: p.episode || fr.episodes > 0,
	}
	// Tiling by construction: the queue hop absorbs the part of the
	// end-to-end latency no work span covered, so the hops sum exactly.
	d.Hops[HopQueue] += lat - p.spanSum

	thr := fr.threshold(d.Class)
	d.Outlier = (thr > 0 && lat > thr) || d.Errno != 0 || d.Episode
	if d.Outlier {
		if len(fr.outliers) < fr.cfg.OutlierCap {
			tree := make([]Event, 0, len(p.events)+1)
			tree = append(tree, p.events...)
			tree = append(tree, root)
			fr.outliers = append(fr.outliers, Outlier{Digest: d, Events: tree})
			fr.reg.count("flightrec.outliers", 1)
		} else {
			fr.dropped++
			fr.reg.count("flightrec.outliers.dropped", 1)
		}
	}
	fr.push(d)
}

// Push ingests an already-built digest: the seam tests use to feed the ring
// directly. The ring and the per-class aggregates are updated; outlier
// capture is finalize's job (Push has no span tree to keep).
func (fr *FlightRecorder) Push(d Digest) {
	if fr == nil {
		return
	}
	fr.push(d)
}

func (fr *FlightRecorder) push(d Digest) {
	if len(fr.ring) < fr.cfg.Capacity {
		fr.ring = append(fr.ring, d)
	} else {
		fr.ring[fr.next] = d
		fr.next = (fr.next + 1) % fr.cfg.Capacity
	}
	fr.total++
	fr.reg.count("flightrec.digests", 1)

	a := fr.aggFor(d.Class)
	a.count++
	a.lat.observe(d.Latency())
	for h := Hop(0); h < HopCount; h++ {
		a.hops[h].observe(d.Hops[h])
	}
}

// agg is lazily keyed by class; the table is tiny (one entry per QoS class).
func (fr *FlightRecorder) aggFor(class uint8) *classAgg {
	if fr.agg == nil {
		fr.agg = make(map[uint8]*classAgg)
	}
	a := fr.agg[class]
	if a == nil {
		a = &classAgg{}
		fr.agg[class] = a
	}
	return a
}

// BeginEpisode marks the start of a restart/handover/recovery episode:
// every currently in-flight request, and every request that starts before
// the matching EndEpisode, is flagged (and therefore captured as an
// outlier). Episodes nest.
func (fr *FlightRecorder) BeginEpisode() {
	if fr == nil {
		return
	}
	fr.episodes++
	for _, p := range fr.inflight {
		p.episode = true
	}
	fr.reg.count("flightrec.episodes", 1)
}

// EndEpisode closes the innermost open episode.
func (fr *FlightRecorder) EndEpisode() {
	if fr == nil || fr.episodes == 0 {
		return
	}
	fr.episodes--
}

// Len returns the number of digests currently held (≤ capacity).
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	return len(fr.ring)
}

// Total returns the number of digests ever recorded.
func (fr *FlightRecorder) Total() uint64 {
	if fr == nil {
		return 0
	}
	return fr.total
}

// Capacity returns the ring capacity.
func (fr *FlightRecorder) Capacity() int {
	if fr == nil {
		return 0
	}
	return fr.cfg.Capacity
}

// Digests returns a copy of the retained digests, oldest first.
func (fr *FlightRecorder) Digests() []Digest {
	if fr == nil || len(fr.ring) == 0 {
		return nil
	}
	out := make([]Digest, 0, len(fr.ring))
	if len(fr.ring) == fr.cfg.Capacity {
		out = append(out, fr.ring[fr.next:]...)
		out = append(out, fr.ring[:fr.next]...)
	} else {
		out = append(out, fr.ring...)
	}
	return out
}

// Outliers returns the captured outliers in finalization order. The slice
// is the recorder's backing store; callers must not mutate it.
func (fr *FlightRecorder) Outliers() []Outlier {
	if fr == nil {
		return nil
	}
	return fr.outliers
}

// OutliersDropped returns how many outliers were counted but not retained
// because the store was full.
func (fr *FlightRecorder) OutliersDropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.dropped
}

// Classes returns the QoS classes seen so far, ascending.
func (fr *FlightRecorder) Classes() []uint8 {
	if fr == nil {
		return nil
	}
	out := make([]uint8, 0, len(fr.agg))
	for c := 0; c < 256; c++ {
		if _, ok := fr.agg[uint8(c)]; ok {
			out = append(out, uint8(c))
		}
	}
	return out
}

// Latency returns the end-to-end latency histogram of one class, or nil.
func (fr *FlightRecorder) Latency(class uint8) *Hist {
	if fr == nil || fr.agg[class] == nil {
		return nil
	}
	return &fr.agg[class].lat
}

// HopLatency returns the per-request duration histogram of one hop within
// one class, or nil.
func (fr *FlightRecorder) HopLatency(class uint8, hop Hop) *Hist {
	if fr == nil || fr.agg[class] == nil || hop >= HopCount {
		return nil
	}
	return &fr.agg[class].hops[hop]
}

// count charges a flightrec.* counter into the owning tracer's registry
// when armed through one; standalone recorders (tests, Push feeds) skip it.
func (r *Registry) count(name string, n uint64) {
	if r == nil {
		return
	}
	r.add(name, n)
}

// quantMark renders a quantile with the exactness marker: a "~" prefix once
// the histogram spilled its reservoir and values are per-bucket maxima.
func quantMark(h *Hist, q float64) string {
	v := fmt.Sprintf("%dns", int64(h.Quantile(q)))
	if !h.Exact() {
		return "~" + v
	}
	return v
}

// WriteAttribution writes the per-class critical-path table: for each QoS
// class, the end-to-end latency quantiles, then one row per hop with that
// hop's quantiles and its share of the class's total time. This is the
// "where does the p99 live" answer, and it is byte-deterministic.
func (fr *FlightRecorder) WriteAttribution(w io.Writer) error {
	if fr == nil {
		return nil
	}
	for _, class := range fr.Classes() {
		a := fr.agg[class]
		if _, err := fmt.Fprintf(w, "attr class=%d count=%d lat p50=%s p99=%s p999=%s mean=%dns\n",
			class, a.count, quantMark(&a.lat, 0.50), quantMark(&a.lat, 0.99),
			quantMark(&a.lat, 0.999), int64(a.lat.Mean())); err != nil {
			return err
		}
		total := a.lat.Sum
		for h := Hop(0); h < HopCount; h++ {
			hh := &a.hops[h]
			if hh.Count == 0 || hh.Sum == 0 && h != HopQueue {
				continue
			}
			var bp int64 // share in basis points, integer math only
			if total > 0 {
				bp = int64(hh.Sum) * 10000 / int64(total)
			}
			if _, err := fmt.Fprintf(w, "attr class=%d hop=%-9s p50=%s p99=%s share=%d.%02d%%\n",
				class, h, quantMark(hh, 0.50), quantMark(hh, 0.99), bp/100, bp%100); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeDigest writes one digest line (shared by the dump and the outlier
// section).
func writeDigest(w io.Writer, tag string, d Digest) error {
	_, err := fmt.Fprintf(w,
		"%s rid=%d vm=%s op=%q class=%d start=%d end=%d lat=%dns errno=%d episode=%t outlier=%t hops queue=%d frontend=%d hypercall=%d irq=%d backend=%d copy=%d device=%d\n",
		tag, d.RID, d.VM, d.Op, d.Class, int64(d.Start), int64(d.End), int64(d.Latency()),
		d.Errno, d.Episode, d.Outlier,
		int64(d.Hops[HopQueue]), int64(d.Hops[HopFrontend]), int64(d.Hops[HopHypercall]),
		int64(d.Hops[HopIRQ]), int64(d.Hops[HopBackend]), int64(d.Hops[HopCopy]),
		int64(d.Hops[HopDevice]))
	return err
}

// WriteDump writes the full deterministic flight-recorder dump: the header
// with the bounding counters, the attribution table, every retained digest
// oldest-first, and the captured outlier span trees. Same seed + same
// config ⇒ byte-identical output (the stress harness compares dumps).
func (fr *FlightRecorder) WriteDump(w io.Writer) error {
	if fr == nil {
		_, err := io.WriteString(w, "flightrec disarmed\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "flightrec capacity=%d held=%d total=%d inflight=%d outliers=%d dropped=%d stale=%d\n",
		fr.cfg.Capacity, len(fr.ring), fr.total, len(fr.inflight), len(fr.outliers), fr.dropped, fr.stale); err != nil {
		return err
	}
	if err := fr.WriteAttribution(w); err != nil {
		return err
	}
	for _, d := range fr.Digests() {
		if err := writeDigest(w, "digest", d); err != nil {
			return err
		}
	}
	for _, o := range fr.outliers {
		if err := writeDigest(w, "outlier", o.Digest); err != nil {
			return err
		}
		for _, e := range o.Events {
			kind := "span"
			switch e.Kind {
			case KindGroup:
				kind = "group"
			case KindInstant:
				kind = "instant"
			}
			line := fmt.Sprintf("  %s %s/%s %q start=%d dur=%dns",
				kind, e.VM, e.Layer, e.Name, int64(e.Start), int64(e.Dur()))
			if e.Detail != "" {
				line += fmt.Sprintf(" detail=%q", e.Detail)
			}
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
