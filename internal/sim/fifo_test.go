package sim

import (
	"math/rand"
	"testing"
)

// FIFO pops in push order under any interleaving, like a slice resliced
// from the front.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var ref []int
	for i := 0; i < 20000; i++ {
		if len(ref) == 0 || rng.Intn(100) < 52 {
			q.Push(i)
			ref = append(ref, i)
		} else if got, want := q.Pop(), ref[0]; got != want {
			t.Fatalf("step %d: Pop = %d, want %d", i, got, want)
		} else {
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), len(ref))
		}
	}
}

// A queue whose length stays bounded stops allocating.
func TestFIFOSteadyStateDoesNotAllocate(t *testing.T) {
	var q FIFO[*Proc]
	p := &Proc{}
	for i := 0; i < 8; i++ {
		q.Push(p)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(p)
		q.Pop()
	}); allocs != 0 {
		t.Fatalf("push+pop at a steady length allocates %v times, want 0", allocs)
	}
}
