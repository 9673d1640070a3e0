package main

import (
	"fmt"

	"paradice/internal/sim"
	"paradice/internal/trace"
)

// schedCounter is a sim.SchedObserver that counts scheduling decisions.
type schedCounter struct{ callbacks, resumes uint64 }

func (c *schedCounter) SchedCallback(sim.Time)       { c.callbacks++ }
func (c *schedCounter) SchedResume(sim.Time, string) { c.resumes++ }

// perOpCounters are the trace-registry counters reported per operation.
var perOpCounters = []string{
	"hv.irq.sent", "hv.copy.bytes", "hv.copy.ops", "hv.grant.validations",
	"hv.grant.scans", "hv.map.pages", "iommu.dma.bytes", "cvd.doorbell.flushes",
	"cvd.notify.sent", "cvd.backend.wake_irqs", "cvd.fe.grant.crossings",
	"cvd.pool.served",
}

// hitRatios are hit/(hit+miss) counter pairs; 0 when the cache is off.
var hitRatios = []struct{ name, hit, miss string }{
	{"hv.tlb.hit_ratio", "hv.tlb.hit", "hv.tlb.miss"},
	{"cvd.mapcache.hit_ratio", "cvd.mapcache.hits", "cvd.mapcache.misses"},
}

// layers turns the traced primary run into per-layer values: l holds the
// deterministic counts and virtual times, h the host-side measurements. It
// fails when the flight recorder's hops do not add up to the latency.
func (p *primaryRun) layers() (l, h map[string]float64, err error) {
	ops := float64(p.ops)
	l = map[string]float64{
		"sim.events":           float64(p.sched.callbacks + p.sched.resumes),
		"sim.events_per_op":    float64(p.sched.callbacks+p.sched.resumes) / ops,
		"sim.resumes_per_op":   float64(p.sched.resumes) / ops,
		"sim.callbacks_per_op": float64(p.sched.callbacks) / ops,
	}
	reg := p.tracer.Metrics()
	for _, c := range perOpCounters {
		l[c] = float64(reg.Counter(c)) / ops
	}
	l["cvd.adaptive.switches"] = float64(reg.Counter("cvd.adaptive.switches"))
	for _, r := range hitRatios {
		hit, miss := reg.Counter(r.hit), reg.Counter(r.miss)
		l[r.name] = 0
		if hit+miss > 0 {
			l[r.name] = float64(hit) / float64(hit+miss)
		}
	}
	hops, err := hopMeans(p.flight)
	if err != nil {
		return nil, nil, err
	}
	for hop, us := range hops {
		l["hop."+hop+"_us"] = us
	}

	h, err = cpuShares(p.profile.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	h["host.allocs_per_op"] = float64(p.mem1.Mallocs-p.mem0.Mallocs) / ops
	h["host.alloc_bytes_per_op"] = float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / ops
	h["host.gc_cycles"] = float64(p.mem1.NumGC - p.mem0.NumGC)
	return l, h, nil
}

// hopMeans returns the mean virtual time per request in each flight-recorder
// hop, over every class. It checks that, class by class, the hops tile the
// end-to-end latency exactly.
func hopMeans(fr *trace.FlightRecorder) (map[string]float64, error) {
	var sums [trace.HopCount]sim.Duration
	var n uint64
	for _, c := range fr.Classes() {
		lat := fr.Latency(c)
		var tiled sim.Duration
		for hop := trace.Hop(0); hop < trace.HopCount; hop++ {
			s := fr.HopLatency(c, hop).Sum
			tiled += s
			sums[hop] += s
		}
		if tiled != lat.Sum {
			return nil, fmt.Errorf("class %d: hops sum to %v, latency sums to %v", c, tiled, lat.Sum)
		}
		n += lat.Count
	}
	if n == 0 {
		return nil, fmt.Errorf("flight recorder saw no requests")
	}
	out := make(map[string]float64, trace.HopCount)
	for hop := trace.Hop(0); hop < trace.HopCount; hop++ {
		out[hop.String()] = sums[hop].Microseconds() / float64(n)
	}
	return out, nil
}
