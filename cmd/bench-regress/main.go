// Command bench-regress gates a fresh `paradice-bench -json` run against the
// latest committed snapshot: the BENCH_<n>.json with the highest n in the
// working directory. Every row of every measured experiment is guarded.
// Rows are keyed by experiment/Series/X and must carry exactly the
// snapshot's Value; a changed, missing or extra row fails, and so does an
// experiment that errored. Table experiments (bench.Experiment.IsTable) are
// skipped, since table1 and table2 count this repository's own source lines.
//
// The simulation is deterministic, so a change that keeps the cost model
// leaves every row bit-identical, and one that changes it shows up as a
// reviewed new snapshot. Every run is also checked against the paper's
// conclusions (bench.CheckClaims) on all its rows, tables included, so a
// new snapshot that breaks one fails too.
//
// The current run is one or more files, merged:
//
//	go build -o paradice-bench ./cmd/paradice-bench
//	./paradice-bench -json > cur.json
//	go run ./cmd/bench-regress cur.json
//
// An all-experiments cur.json is itself a new snapshot, BENCH_<n+1>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"paradice/internal/bench"
)

type result struct {
	ID    string      `json:"id"`
	Rows  []bench.Row `json:"rows"`
	Error string      `json:"error"`
}

// latest returns the highest-numbered BENCH_<n>.json in dir.
func latest(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && n > bestN {
			best, bestN = p, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json in %s", dir)
	}
	return best, nil
}

func decode(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// load merges the gated rows of the given files into one map keyed by
// experiment/Series/X. An errored experiment or a repeated key is an error.
func load(paths ...string) (map[string]float64, error) {
	vals := make(map[string]float64)
	for _, path := range paths {
		results, err := decode(path)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if res.Error != "" {
				return nil, fmt.Errorf("%s: experiment %s errored: %s", path, res.ID, res.Error)
			}
			if e, ok := bench.Find(res.ID); ok && e.IsTable {
				continue
			}
			for _, r := range res.Rows {
				key := res.ID + "/" + r.Series + "/" + r.X
				if _, dup := vals[key]; dup {
					return nil, fmt.Errorf("%s: row %s repeated", path, key)
				}
				vals[key] = r.Value
			}
		}
	}
	return vals, nil
}

// checkClaims checks every experiment's claims on the merged rows of the
// given files.
func checkClaims(paths ...string) error {
	rows := make(map[string][]bench.Row)
	for _, path := range paths {
		results, err := decode(path)
		if err != nil {
			return err
		}
		for _, res := range results {
			rows[res.ID] = append(rows[res.ID], res.Rows...)
		}
	}
	var errs []error
	for _, e := range bench.All() {
		errs = append(errs, bench.CheckClaims(e.ID, rows[e.ID]))
	}
	return errors.Join(errs...)
}

// compare returns one line per changed, missing or extra row, sorted.
func compare(base, cur map[string]float64) []string {
	var diffs []string
	for key, want := range base {
		got, ok := cur[key]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing (baseline %v)", key, want))
		} else if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: %v -> %v", key, want, got))
		}
	}
	for key, got := range cur {
		if _, ok := base[key]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: extra (current %v)", key, got))
		}
	}
	sort.Strings(diffs)
	return diffs
}

func main() {
	flag.Usage = func() { fmt.Fprintln(os.Stderr, "usage: bench-regress CURRENT.json...") }
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-regress:", err)
			os.Exit(2)
		}
	}
	baseline, err := latest(".")
	check(err)
	base, err := load(baseline)
	check(err)
	cur, err := load(flag.Args()...)
	check(err)

	failed := false
	if err := checkClaims(flag.Args()...); err != nil {
		fmt.Fprintf(os.Stderr, "bench-regress: paper claims broken:\n%v\n", err)
		failed = true
	}
	if diffs := compare(base, cur); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "bench-regress: %d row(s) differ from %s:\n  %s\n",
			len(diffs), baseline, strings.Join(diffs, "\n  "))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("bench-regress: %d rows identical to %s, every paper claim holds\n", len(base), baseline)
}
