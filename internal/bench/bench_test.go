package bench

import (
	"slices"
	"strings"
	"testing"
)

// TestAllExperimentsRegistered runs every experiment once at quick fidelity
// and checks every claim about it on the rows it returns.
func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"noop", "fig2", "fig3", "fig4", "fig5", "fig6",
		"mouse", "camera", "audio", "table1", "table2", "table3", "analyzer",
		"ablation", "adaptive", "bulk", "handover", "multivm", "tail", "walkcache"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	quick := make(map[string][]Row)
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
		t.Run(id, func(t *testing.T) {
			rows, err := got[i].Run(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 && !got[i].IsTable {
				t.Fatal("no rows")
			}
			quick[id] = rows
			if err := CheckClaims(id, rows); err != nil {
				t.Error(err)
			}
		})
	}

	// A claim can fail at quick fidelity: halving the polled batch-4 rate
	// breaks §6.1.2's near-native claim.
	fig2 := slices.Clone(quick["fig2"])
	for i, r := range fig2 {
		if r.Series == pPolling.name && r.X == "batch=4" {
			fig2[i].Value /= 2
		}
	}
	if err := CheckClaims("fig2", fig2); err == nil || !strings.Contains(err.Error(), "§6.1.2: polling reaches near-native") {
		t.Errorf("halved Paradice(P)/batch=4: err = %v, want the §6.1.2 near-native claim broken", err)
	}
}

// Every claim names a registered experiment, and none passes on rows its
// experiment did not emit.
func TestClaimsFailWithoutRows(t *testing.T) {
	for _, c := range claims {
		if _, ok := Find(c.exp); !ok {
			t.Errorf("claim %q: no experiment %s", c.text, c.exp)
		}
		if err := c.eval(nil); err == nil {
			t.Errorf("claim %q holds on no rows", c.text)
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
