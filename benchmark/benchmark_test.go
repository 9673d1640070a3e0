package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"regexp"
	"strings"
	"testing"

	"paradice/internal/driver/drm"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	noopWarm: 5, noopOps: 200, infoOps: 5,
	streamOps:   100,
	lightWindow: ms(2), heavyWindow: ms(2), probeWindow: ms(1),
	guests: 4, guestWindow: ms(5),
	vendor: drm.VendorATI, crc: crc32.ChecksumIEEE,
}

func ms(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

// TestMain serves the reps a test run spawns: the parent half re-executes
// this binary with -child, and the rep runs at tiny scale.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := cli(os.Args[1:], os.Stdout, tinyScale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchFileShape(t *testing.T) {
	f := readBenchFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := make(map[string]bool)
	check := func(m fileMetric, endToEnd bool) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if endToEnd != (m.Bound != nil) {
			t.Errorf("%s: bound present=%v, want %v", m.Name, m.Bound != nil, endToEnd)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	for _, m := range f.EndToEnd {
		check(m, true)
	}
	for _, m := range f.PerLayer {
		check(m, false)
	}
	for i, w := range f.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json but not in the program", i, w.Name)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	var setup *fileMetric
	for i := range f.EndToEnd {
		if f.EndToEnd[i].Name == "setup_s" {
			setup = &f.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// printed parses the JSON line that ends a report.
func printed(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestEveryWorkloadPrintsEveryMetric runs each workload once traced, through
// child processes, and checks that the untraced report has every end-to-end
// metric and the traced one every per-layer metric, with BENCHMARK.json's
// units. Making the report also checks that traced and untraced reps agree
// on every virtual-time value, and the traced rep that the hops tile.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	f := readBenchFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 2, reps: 1, trace: true}
			s, err := collect(w, o, func(traced bool) (*repResult, error) { return spawn(w, o.seed, traced) })
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				trace bool
				want  []fileMetric
			}{{false, f.EndToEnd}, {true, f.PerLayer}} {
				var out bytes.Buffer
				o.trace = mode.trace
				if err := report(&out, w, o, s); err != nil {
					t.Fatal(err)
				}
				res := printed(t, out.String())
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(mode.want) {
					t.Errorf("trace=%v: correct=%v attempted=%d with %d metrics, want %d",
						mode.trace, res.Correct, res.Attempted, len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: %s printed=%v unit %q, want %q", mode.trace, m.Name, ok, got.Unit, m.Unit)
					}
				}
				if !mode.trace {
					for _, m := range mode.want {
						if res.Metrics[m.Name].Value == 0 {
							t.Errorf("end-to-end %s is 0", m.Name)
						}
					}
				}
			}
		})
	}
}

// TestNoopGoldens pins the traced noop-rtt breakdown to the cost model: two
// 16 µs inter-VM interrupts per round trip, and the DRM Info witness at the
// §6.1.1 no-op latency.
func TestNoopGoldens(t *testing.T) {
	res, err := runRep(workloads[0], 1, true, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.L["hop.irq_us"]; got != 32 {
		t.Errorf("hop.irq_us = %v, want 32", got)
	}
	want := "drm-info witness n=5 p50=35.309us p99=35.309us"
	if !strings.Contains(strings.Join(res.Notes, "\n"), want) {
		t.Errorf("notes %q lack %q", res.Notes, want)
	}
}

func TestNearestRank(t *testing.T) {
	ten := make([]sim.Duration, 10)
	for i := range ten {
		ten[i] = sim.Duration(i + 1)
	}
	for _, c := range []struct {
		xs   []sim.Duration
		q    float64
		want sim.Duration
	}{
		{ten, 0, 1},
		{ten, 0.1, 1},
		{ten, 0.11, 2},
		{ten, 0.5, 5},
		{ten, 0.51, 6},
		{ten, 0.99, 10},
		{ten, 1, 10},
		{[]sim.Duration{7}, 0.5, 7},
	} {
		if got := nearestRank(c.xs, c.q); got != c.want {
			t.Errorf("nearestRank(n=%d, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
	// p999 is shown only with at least ten samples beyond it.
	if strings.Contains(quantileNote("x", make([]sim.Duration, 9999)), "p999") {
		t.Error("p999 shown for 9999 samples")
	}
	if !strings.Contains(quantileNote("x", make([]sim.Duration, 10000)), "p999") {
		t.Error("p999 missing for 10000 samples")
	}
}

func TestHopsMustTile(t *testing.T) {
	fr := trace.NewFlightRecorder(trace.FlightConfig{})
	d := trace.Digest{RID: 1, Start: 0, End: 100}
	d.Hops[trace.HopIRQ] = 100
	fr.Push(d)
	if _, err := hopMeans(fr); err != nil {
		t.Fatalf("tiled digest rejected: %v", err)
	}
	d.RID, d.Hops[trace.HopIRQ] = 2, 90
	fr.Push(d)
	if _, err := hopMeans(fr); err == nil {
		t.Fatal("hops summing to less than the latency were accepted")
	}
}

func TestWrongOutputFailsTheRun(t *testing.T) {
	for _, c := range []struct {
		name string
		w    *workload
		mod  func(*scale)
		want string
	}{
		{"vendor", workloads[0], func(sc *scale) { sc.vendor = drm.VendorATI + 1 }, "vendor"},
		{"crc", workloads[1], func(sc *scale) {
			sc.crc = func(b []byte) uint32 { return crc32.ChecksumIEEE(b) + 1 }
		}, "CRC"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := tinyScale
			c.mod(&sc)
			_, err := runRep(c.w, 1, false, sc)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run error %v, want one naming %q", err, c.want)
			}
		})
	}
}

func TestRepsMustAgree(t *testing.T) {
	rep := func(v float64) *repResult {
		return &repResult{Attempted: 1, V: map[string]float64{"lat_p50_us": v}, H: map[string]float64{}}
	}
	s := &summary{untraced: []*repResult{rep(1), rep(1)}}
	if _, err := s.values(); err != nil {
		t.Fatalf("agreeing reps rejected: %v", err)
	}
	s.traced = []*repResult{rep(1.0000001)}
	if _, err := s.values(); err == nil {
		t.Fatal("a traced rep that differs in a virtual-time value was accepted")
	}
}
