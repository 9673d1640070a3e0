package bench

import (
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"noop", "fig2", "fig3", "fig4", "fig5", "fig6",
		"mouse", "camera", "audio", "table1", "table2", "table3", "analyzer",
		"ablation", "adaptive", "bulk", "handover", "multivm", "tail", "walkcache"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
		// Every experiment runs at quick fidelity, and every measured one
		// returns rows.
		rows, err := got[i].Run(true)
		if err != nil {
			t.Errorf("%s: %v", id, err)
		} else if len(rows) == 0 && !got[i].IsTable {
			t.Errorf("%s returned no rows", id)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if _, ok := Find("fig99"); ok {
		t.Fatal("fig99 found")
	}
}

func TestTable3Rows(t *testing.T) {
	rows, err := RunTable3(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d approaches", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Series != "Paradice" || strings.Contains(last.X, "no") {
		t.Fatalf("Paradice row = %+v; the paper's point is all four yes", last)
	}
}

func TestTable2MeasuresRealCode(t *testing.T) {
	rows, err := RunTable2(true)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range rows {
		total += r.Value
	}
	if total < 5000 {
		t.Fatalf("measured %0.f LoC across components; expected a real tree", total)
	}
}

func TestAnalyzerRowsIncludeVSync(t *testing.T) {
	rows, err := RunAnalyzer(true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.Series == "DRM_WAIT_VSYNC" {
			found = true
			if strings.Contains(r.X, "JIT") {
				t.Fatal("vsync wait should be static")
			}
		}
	}
	if !found {
		t.Fatal("analyzer rows missing DRM_WAIT_VSYNC")
	}
}

func TestNoopExperimentQuick(t *testing.T) {
	rows, err := RunNoop(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Value < 30 || rows[0].Value > 40 {
		t.Fatalf("interrupt no-op = %.1fµs", rows[0].Value)
	}
	if rows[1].Value > 4 {
		t.Fatalf("polled no-op = %.1fµs", rows[1].Value)
	}
}
