package bench

import "testing"

// findRow returns the value of the (series, x) row, failing the test when
// the experiment did not emit it.
func findRow(t *testing.T, rows []Row, series, x string) float64 {
	t.Helper()
	for _, r := range rows {
		if r.Series == series && r.X == x {
			return r.Value
		}
	}
	t.Fatalf("no row %s/%s", series, x)
	return 0
}

// TestAdaptiveEnvelopeQuick is the acceptance bar for the adaptive
// transport: within 10% of the BETTER static mode at both ends of the load
// sweep, with zero excess spin at the low end. The full-fidelity sweep is
// gated identically by bench-regress against the latest snapshot.
func TestAdaptiveEnvelopeQuick(t *testing.T) {
	rows, err := RunAdaptive(true)
	if err != nil {
		t.Fatal(err)
	}
	if hi := findRow(t, rows, "envelope", "high-vs-best-static"); hi > 1.10 {
		t.Fatalf("adaptive p50 at the top rate is %.3fx the best static mode, want <= 1.10", hi)
	}
	if lo := findRow(t, rows, "envelope", "low-vs-interrupts"); lo > 1.10 {
		t.Fatalf("adaptive p50 at the bottom rate is %.3fx interrupts, want <= 1.10", lo)
	}
	if spin := findRow(t, rows, "excess-spin", "low-load"); spin != 0 {
		t.Fatalf("adaptive burned %.3f µs/op of spin at 2 k/s where interrupts burn none", spin)
	}
	// The batched static config earns its IRQ amortization at the top rate:
	// strictly fewer doorbells than unbatched interrupts.
	top := "load=240k/s"
	plain := findRow(t, rows, "doorbells interrupts", top)
	batched := findRow(t, rows, "doorbells interrupts+batch", top)
	if batched >= plain {
		t.Fatalf("batching sent %.0f doorbells vs %.0f unbatched at the top rate", batched, plain)
	}
}
