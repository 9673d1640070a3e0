// Command bench-regress guards the perf trajectory: it compares a fresh
// `paradice-bench -json` run against the committed baseline
// (BENCH_5.json, BENCH_6.json, BENCH_7.json, BENCH_9.json, BENCH_10.json)
// and fails when a guarded row drifted past its tolerance in the bad
// direction.
//
// Guarded rows are the ones the evaluation hangs on:
//
//   - the §6.1.1 no-op forwarding latencies (both transports) and the
//     Figure 5 order-500 matrix-multiplication times — lower is better,
//     only upward drift fails;
//   - the tail experiment's per-class p99 rows at every load level —
//     lower is better, gated at 10% so a tail regression under open-loop
//     load fails the build even when the means stay flat;
//   - the tail experiment's critical-path attribution rows
//     ("attr <class> <hop> p99", from the flight recorder's per-hop
//     digests) — same " p99" suffix, same gate, so a regression that
//     moves the p99 *between* hops without moving the end-to-end number
//     still shows up, hop by hop;
//   - the tail experiment's max-sustained-throughput row — HIGHER is
//     better, so it fails on downward drift (tolerance 5%: the sweep is
//     quantized to the swept rates, so any real capacity loss shows up as
//     a whole-level drop, far beyond 5%);
//   - the handover experiment's contract rows — "failed"/handover (baseline
//     exactly 0, so any loss reads as 100% drift and fails), the handover
//     downtime (lower is better), and the queued-replay and warm-state
//     counters (higher is better: dropping toward zero means the successor
//     came up cold or parked posts were lost);
//   - the adaptive experiment's envelope — the per-transport p50 rows, the
//     two envelope ratios (adaptive against the better static mode at both
//     ends of the load sweep), the zero-baseline excess-spin row (any idle
//     spin fails), and the batched doorbell count at every level;
//   - the multivm experiment's Figure 7 scaling curve — the aggregate
//     throughput and scaling-efficiency rows are higher-is-better and gate
//     downward drift, the worst per-guest p99 rows gate upward drift.
//
// The simulation is deterministic, so the expected drift is exactly zero —
// the tolerances exist so an intentional cost-model recalibration shows up
// as a reviewed baseline update, not a red herring.
//
// Usage:
//
//	paradice-bench -json -exp noop,fig5 > current.json
//	bench-regress -baseline BENCH_5.json -current current.json
//	paradice-bench -json -exp tail > current6.json
//	bench-regress -baseline BENCH_6.json -current current6.json
//	paradice-bench -json -exp multivm > current10.json
//	bench-regress -baseline BENCH_10.json -current current10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type row struct {
	Series string
	X      string
	Value  float64
	Unit   string
}

type result struct {
	ID    string `json:"id"`
	Rows  []row  `json:"rows"`
	Error string `json:"error"`
}

// rule is one guarded row's gate: its drift tolerance in percent and the
// direction that counts as a regression.
type rule struct {
	tol            float64 // allowed drift in percent (0: the -max-drift default)
	higherIsBetter bool    // fail on downward drift instead of upward
}

// ruleFor returns the gate rule for a row, or false when the row is not
// guarded.
func ruleFor(id string, r row) (rule, bool) {
	switch id {
	case "noop":
		if r.X == "no-op fileop" {
			return rule{}, true
		}
	case "fig5":
		if r.X == "order=500" {
			return rule{}, true
		}
	case "tail":
		if strings.HasSuffix(r.Series, " p99") {
			return rule{}, true
		}
		if r.Series == "max-sustained" {
			return rule{tol: 5, higherIsBetter: true}, true
		}
	case "adaptive":
		// The adaptive-transport envelope. The per-transport p50 rows gate
		// like latencies (lower is better, default tolerance). The envelope
		// ratio rows have baselines near 1.0, so a stance-machinery
		// regression that drags adaptive away from the better static mode
		// at either end of the sweep shows up directly. "excess-spin" at
		// low load has a baseline of exactly 0 — ANY spin burned by an
		// adaptive channel under sparse load reads as 100% drift and fails;
		// zero idle spin is a hard gate, not a tolerance.
		if strings.HasPrefix(r.Series, "p50 ") {
			return rule{}, true
		}
		if r.Series == "envelope" {
			return rule{}, true
		}
		if r.Series == "excess-spin" {
			return rule{}, true
		}
		// Batching's reason to exist: the batched config must keep sending
		// FEWER doorbells than load posts — a drop in amortization shows up
		// as this count rising toward one IRQ per post.
		if r.Series == "doorbells interrupts+batch" {
			return rule{}, true
		}
	case "handover":
		// The planned handover's contract rows. "failed"/handover has a
		// baseline of exactly 0, so ANY nonzero current value reports as
		// 100% drift and fails — zero-loss is a hard gate, not a tolerance.
		// Downtime (the ring pause) gates like a latency; the warm/replay
		// counters gate downward (a warm-transfer regression shows up as
		// these dropping toward zero, which reads as cold successor state).
		if r.Series == "failed" && r.X == "handover" {
			return rule{}, true
		}
		if r.Series == "downtime" && r.X == "handover" {
			return rule{}, true
		}
		if r.Series == "warm map hits" || r.Series == "queued-replayed" || r.Series == "warm reopens" {
			return rule{tol: 5, higherIsBetter: true}, true
		}
	case "multivm":
		// The Figure 7 scaling curve. Aggregate throughput and scaling
		// efficiency gate upward — a worker-pool or shard-routing regression
		// shows up as lost throughput at the high guest counts long before
		// it breaks a functional test. The worst per-guest p99 rows gate
		// like latencies (lower is better): a fairness regression reads as
		// one guest's tail blowing out the max.
		if strings.HasPrefix(r.Series, "tput ") || strings.HasPrefix(r.Series, "efficiency ") {
			return rule{tol: 5, higherIsBetter: true}, true
		}
		if strings.HasPrefix(r.Series, "p99 ") {
			return rule{tol: 5}, true
		}
	}
	return rule{}, false
}

// entry is one guarded value with its gate rule.
type entry struct {
	val  float64
	rule rule
}

func parse(path string, data []byte) (map[string]entry, error) {
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := make(map[string]entry)
	for _, res := range results {
		if res.Error != "" {
			return nil, fmt.Errorf("%s: experiment %s errored: %s", path, res.ID, res.Error)
		}
		for _, r := range res.Rows {
			if ru, ok := ruleFor(res.ID, r); ok {
				vals[res.ID+"/"+r.Series+"/"+r.X] = entry{val: r.Value, rule: ru}
			}
		}
	}
	return vals, nil
}

func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, data)
}

// compare gates every baseline row against the current run. It returns the
// per-row report lines and the failures; maxDrift is the tolerance for
// rows whose rule carries none of their own.
func compare(base, cur map[string]entry, maxDrift float64) (report, failures []string) {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := base[key]
		got, ok := cur[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%-40s missing from current run", key))
			continue
		}
		tol := want.rule.tol
		if tol == 0 {
			tol = maxDrift
		}
		drift := 0.0
		if want.val != 0 {
			drift = 100 * (got.val - want.val) / want.val
		} else if got.val != 0 {
			drift = 100 // from zero to nonzero: report as full drift
		}
		bad := drift > tol
		dir := ">"
		if want.rule.higherIsBetter {
			bad = drift < -tol
			dir = "<-"
		}
		status := "ok"
		if bad {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%-40s %.3f -> %.3f (%+.1f%% %s %.0f%%)",
				key, want.val, got.val, drift, dir, tol))
		}
		report = append(report, fmt.Sprintf("  %-40s baseline %12.3f  current %12.3f  %+7.1f%%  %s",
			key, want.val, got.val, drift, status))
	}
	return report, failures
}

func main() {
	baseline := flag.String("baseline", "BENCH_5.json", "committed baseline JSON")
	current := flag.String("current", "", "fresh paradice-bench -json output")
	maxDrift := flag.Float64("max-drift", 10, "default allowed drift in percent")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "bench-regress: -current is required")
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-regress:", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-regress:", err)
		os.Exit(2)
	}
	if len(base) == 0 {
		fmt.Fprintln(os.Stderr, "bench-regress: baseline has no guarded rows")
		os.Exit(2)
	}

	report, failures := compare(base, cur, *maxDrift)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbench-regress: %d guarded row(s) regressed:\n  %s\n",
			len(failures), strings.Join(failures, "\n  "))
		os.Exit(1)
	}
	fmt.Printf("bench-regress: %d guarded rows within tolerance of %s\n", len(base), *baseline)
}
