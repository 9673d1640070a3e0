package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradice/internal/bench"
)

// fixture is a paradice-bench -json document with two measured rows and
// one table row, at the given values.
func fixture(noop, rtP99, loc float64) string {
	return fmt.Sprintf(`[
  {"id": "noop", "title": "no-op", "rows": [
    {"Series": "Paradice(P)", "X": "no-op fileop", "Value": %v, "Unit": "µs"}
  ]},
  {"id": "tail", "title": "tail", "rows": [
    {"Series": "rt p99", "X": "load=60k/s", "Value": %v, "Unit": "µs"}
  ]},
  {"id": "table2", "title": "code breakdown", "rows": [
    {"Series": "Generic", "X": "CVD", "Value": %v, "Unit": "LoC"}
  ]}
]`, noop, rtP99, loc)
}

// write stores each document in its own file and returns the paths.
func write(t *testing.T, docs ...string) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, doc := range docs {
		p := filepath.Join(dir, fmt.Sprintf("cur-%d.json", i))
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func mustLoad(t *testing.T, docs ...string) map[string]float64 {
	t.Helper()
	vals, err := load(write(t, docs...)...)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// Every row of a measured experiment is gated; table rows are not.
func TestParseGuardedRows(t *testing.T) {
	vals := mustLoad(t, fixture(35.309, 11.8, 2039))
	want := map[string]float64{
		"noop/Paradice(P)/no-op fileop": 35.309,
		"tail/rt p99/load=60k/s":        11.8,
	}
	if len(vals) != len(want) {
		t.Fatalf("gated rows = %v, want %v", vals, want)
	}
	for k, v := range want {
		if vals[k] != v {
			t.Errorf("%s = %v, want %v", k, vals[k], v)
		}
	}
}

// An identical run passes, also when it is split over several files.
func TestComparePass(t *testing.T) {
	base := mustLoad(t, fixture(35.309, 11.8, 2039))
	split := mustLoad(t,
		`[{"id": "noop", "rows": [{"Series": "Paradice(P)", "X": "no-op fileop", "Value": 35.309}]}]`,
		`[{"id": "tail", "rows": [{"Series": "rt p99", "X": "load=60k/s", "Value": 11.8}]}]`)
	for _, cur := range []map[string]float64{mustLoad(t, fixture(35.309, 11.8, 2039)), split} {
		if diffs := compare(base, cur); len(diffs) != 0 {
			t.Errorf("identical run reported: %v", diffs)
		}
	}
}

// A one-ulp change of any gated row fails, up or down.
func TestCompareOneULP(t *testing.T) {
	base := mustLoad(t, fixture(35.309, 11.8, 2039))
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		for _, cur := range []string{
			fixture(math.Nextafter(35.309, dir), 11.8, 2039),
			fixture(35.309, math.Nextafter(11.8, dir), 2039),
		} {
			if diffs := compare(base, mustLoad(t, cur)); len(diffs) != 1 {
				t.Errorf("one-ulp change toward %v: diffs = %v, want exactly one", dir, diffs)
			}
		}
	}
}

// A row missing from the current run fails.
func TestCompareMissingRow(t *testing.T) {
	base := mustLoad(t, fixture(35.309, 11.8, 2039))
	cur := mustLoad(t, `[{"id": "noop", "rows": [{"Series": "Paradice(P)", "X": "no-op fileop", "Value": 35.309}]}]`)
	diffs := compare(base, cur)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "tail/rt p99/load=60k/s: missing") {
		t.Fatalf("diffs = %v, want the tail row missing", diffs)
	}
}

// A row the snapshot does not have fails too: new rows need a new snapshot.
func TestCompareExtraRow(t *testing.T) {
	base := mustLoad(t, fixture(35.309, 11.8, 2039))
	cur := mustLoad(t, fixture(35.309, 11.8, 2039),
		`[{"id": "fig5", "rows": [{"Series": "Native", "X": "order=500", "Value": 1.5}]}]`)
	diffs := compare(base, cur)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "fig5/Native/order=500: extra") {
		t.Fatalf("diffs = %v, want the fig5 row extra", diffs)
	}
}

// Table experiments count source lines, so their rows never gate.
func TestCompareTableRowsIgnored(t *testing.T) {
	base := mustLoad(t, fixture(35.309, 11.8, 2039))
	cur := mustLoad(t, fixture(35.309, 11.8, 2062),
		`[{"id": "table1", "rows": [{"Series": "GPU", "X": "LoC", "Value": 7}]}]`)
	if diffs := compare(base, cur); len(diffs) != 0 {
		t.Fatalf("table rows gated: %v", diffs)
	}
}

// An errored experiment fails the load, table or not.
func TestParseErroredExperiment(t *testing.T) {
	for _, id := range []string{"tail", "table2"} {
		_, err := load(write(t, fixture(35.309, 11.8, 2039), `[{"id": "`+id+`", "error": "boom"}]`)...)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: err = %v, want the experiment error surfaced", id, err)
		}
	}
}

// The baseline is the highest-numbered snapshot, compared as a number.
func TestLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_9.json", "BENCH_14.json", "BENCH_x.json", "BENCH_5.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latest(dir)
	if err != nil || filepath.Base(got) != "BENCH_14.json" {
		t.Fatalf("latest = %q, %v; want BENCH_14.json", got, err)
	}
	if _, err := latest(t.TempDir()); err == nil {
		t.Fatal("empty directory yielded a snapshot")
	}
}

// The committed snapshot covers every registered experiment, none errored,
// and every measured one has rows: adding or renaming an experiment fails
// here until the snapshot is regenerated.
func TestSnapshotCoverage(t *testing.T) {
	path, err := latest(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	results, err := decode(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]result)
	for _, res := range results {
		if res.Error != "" {
			t.Errorf("%s: experiment %s errored: %s", path, res.ID, res.Error)
		}
		byID[res.ID] = res
	}
	for _, e := range bench.All() {
		res, ok := byID[e.ID]
		switch {
		case !ok:
			t.Errorf("%s: experiment %s missing", path, e.ID)
		case !e.IsTable && len(res.Rows) == 0:
			t.Errorf("%s: measured experiment %s has no rows", path, e.ID)
		}
	}
}

// Every paper claim holds on the committed snapshot's full-fidelity rows.
func TestClaimsHoldOnSnapshot(t *testing.T) {
	path, err := latest(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClaims(path); err != nil {
		t.Fatal(err)
	}
}

// A run that breaks a claim fails, naming the claim's section, and a run
// that lacks a row a claim reads fails, naming the row.
func TestClaimsCanFail(t *testing.T) {
	path, err := latest(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*bench.Row) (keep bool)
		want string
	}{
		{"halved", func(r *bench.Row) bool { r.Value /= 2; return true }, "fig2 §6.1.2: polling reaches near-native"},
		{"missing", func(*bench.Row) bool { return false }, "no row Paradice(P)/batch=4"},
	} {
		results, err := decode(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if results[i].ID != "fig2" {
				continue
			}
			var rows []bench.Row
			for _, r := range results[i].Rows {
				if r.Series != "Paradice(P)" || r.X != "batch=4" || c.edit(&r) {
					rows = append(rows, r)
				}
			}
			results[i].Rows = rows
		}
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkClaims(write(t, string(data))...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s Paradice(P)/batch=4: err = %v, want %q", c.name, err, c.want)
		}
	}
}
