package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Two same-seed runs of the tail experiment are byte-identical after JSON
// encoding — histogram quantiles, the throughput sweep, and the QoS shed
// counts included. This is the property the bench-regress gate rests on:
// any drift it sees is a code change, never noise.
func TestTailDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick sweeps; skipped in -short")
	}
	run := func() []byte {
		rows, err := RunTail(true)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two same-seed tail runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
