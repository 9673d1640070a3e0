package bench

import (
	"testing"

	"paradice"
	"paradice/internal/trace"
)

// Translation caching is one switch: a machine with TLB alone declares the
// 8-chunk CS grant vector in batched crossings, and its backend validations
// hit the grant cache.
func TestTLBArmsBatchedGrants(t *testing.T) {
	var tr *trace.Tracer
	OnMachine = func(m *paradice.Machine) { tr = m.StartTrace() }
	t.Cleanup(func() { OnMachine = nil })
	crossings, err := csDeclareCrossings(paradice.Config{Mode: paradice.Polling, TLB: true})
	if err != nil {
		t.Fatal(err)
	}
	if crossings > 2 {
		t.Fatalf("8-chunk CS with TLB armed took %d grant crossings, want at most 2", crossings)
	}
	if hits := tr.Metrics().Counter("hv.grant.cache.hit"); hits == 0 {
		t.Fatal("TLB armed but no grant validation hit the grant cache")
	}
}
