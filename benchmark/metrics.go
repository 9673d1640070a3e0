package main

import (
	"fmt"
	"sort"
	"strings"
)

// metric is one reported number: its name and unit as BENCHMARK.json lists
// them.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run on every workload. The lat_, goodput and payload metrics are
// virtual time; host_us_per_op, setup_s and peak_rss_mib are host
// measurements, medians over reps. The two host times are at reference
// speed: scaled by refNominal over the median time of the reference job.
var endToEnd = []metric{
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"goodput_kops", "kops/s"},
	{"payload_MBps", "MB/s"},
	{"host_us_per_op", "us"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics a traced run prints on every workload.
var perLayer = func() []metric {
	m := []metric{
		{"sim.events_per_op", "1/op"},
		{"sim.resumes_per_op", "1/op"},
		{"sim.callbacks_per_op", "1/op"},
		{"sim.ns_per_event", "ns"},
		{"sim.goroutines_left", "count"},
		{"host.raw_us_per_op", "us"},
		{"host.ref_ms", "ms"},
	}
	for _, b := range cpuBuckets {
		m = append(m, metric{"host.cpu." + b, "ratio"})
	}
	for _, b := range repoModules {
		m = append(m, metric{"host.cpu_cum." + b, "ratio"})
	}
	m = append(m,
		metric{"host.allocs_per_op", "1/op"},
		metric{"host.alloc_bytes_per_op", "B/op"},
		metric{"host.gc_cycles", "count"},
		metric{"host.heap_retained_mib", "MiB"},
	)
	for _, h := range []string{"queue", "frontend", "hypercall", "irq", "backend", "copy", "device"} {
		m = append(m, metric{"hop." + h + "_us", "us"})
	}
	for _, c := range perOpCounters {
		unit := "1/op"
		if strings.HasSuffix(c, ".bytes") {
			unit = "B/op"
		}
		m = append(m, metric{c, unit})
	}
	m = append(m, metric{"cvd.adaptive.switches", "count"})
	for _, r := range hitRatios {
		m = append(m, metric{r.name, "ratio"})
	}
	return append(m,
		metric{"device.sink.busy_frac", "ratio"},
		metric{"device.sink.max_queue", "count"},
		metric{"load.shed.rt", "count"},
		metric{"load.shed.bulk", "count"},
		metric{"load.samples.rt", "count"},
		metric{"load.samples.bulk", "count"},
		metric{"guest.p99_spread", "ratio"},
		metric{"stream.reuse_share", "ratio"},
		metric{"setup.build_s", "s"},
		metric{"setup.guest_s", "s"},
		metric{"setup.load_s", "s"},
		metric{"trace.overhead", "ratio"},
		metric{"lat_p99_light_us", "us"},
		metric{"bulk_p99_us", "us"},
		metric{"capacity_kops", "kops/s"},
		metric{"write_MBps", "MB/s"},
		metric{"read_MBps", "MB/s"},
		metric{"fail_ratio", "ratio"},
	)
}()

// vDefaults are the virtual-time values of a workload without the feature
// measured: no sink, no load classes, no stream buffers, one guest.
var vDefaults = map[string]float64{
	"device.sink.busy_frac": 0, "device.sink.max_queue": 0,
	"load.shed.rt": 0, "load.shed.bulk": 0,
	"load.samples.rt": 0, "load.samples.bulk": 0,
	"guest.p99_spread": 1, "stream.reuse_share": 0,
	"lat_p99_light_us": 0, "bulk_p99_us": 0, "capacity_kops": 0,
	"write_MBps": 0, "read_MBps": 0,
}

// summary is one workload's run: every rep, untraced and traced.
type summary struct {
	untraced, traced []*repResult
}

// values merges the reps into one value per metric name: virtual-time
// values as they are (the reps must agree on them exactly), host values as
// medians over reps, and per-layer values from the traced reps.
func (s *summary) values() (map[string]float64, error) {
	first := s.untraced[0]
	for _, reps := range [][]*repResult{s.untraced, s.traced} {
		for _, r := range reps {
			if err := sameValues("virtual-time", first.V, r.V); err != nil {
				return nil, err
			}
			if r.Attempted != first.Attempted || r.Failed != first.Failed {
				return nil, fmt.Errorf("reps disagree on attempted/failed: %d/%d vs %d/%d",
					first.Attempted, first.Failed, r.Attempted, r.Failed)
			}
		}
	}
	vals := make(map[string]float64)
	for k, v := range first.V {
		vals[k] = v
	}
	for k := range first.H {
		vals[k] = median(s.untraced, k)
	}
	speed := refNominal.Seconds() * 1e3 / vals["host.ref_ms"]
	vals["host_us_per_op"] = vals["host.raw_us_per_op"] * speed
	vals["setup_s"] *= speed
	if len(s.traced) == 0 {
		return vals, nil
	}
	t := s.traced[0]
	for _, r := range s.traced[1:] {
		if err := sameValues("per-layer", t.L, r.L); err != nil {
			return nil, err
		}
	}
	for k, v := range t.L {
		vals[k] = v
	}
	for k := range t.H {
		if _, ok := first.H[k]; !ok {
			vals[k] = median(s.traced, k)
		}
	}
	vals["sim.ns_per_event"] = vals["primary_ns"] / vals["sim.events"]
	vals["trace.overhead"] = median(s.traced, "primary_us_per_op")/vals["primary_us_per_op"] - 1
	return vals, nil
}

// sameValues fails unless a and b hold bit-identical values.
func sameValues(what string, a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s values differ between reps: %d vs %d names", what, len(a), len(b))
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return fmt.Errorf("%s value %s differs between reps: %v vs %v", what, k, v, w)
		}
	}
	return nil
}

// median returns the median of one host value over reps.
func median(reps []*repResult, key string) float64 {
	xs := make([]float64, 0, len(reps))
	for _, r := range reps {
		xs = append(xs, r.H[key])
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
