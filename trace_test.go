package paradice_test

// Span reconciliation: the work spans a traced request emits must tile its
// root span exactly — sum of leaf spans == end-to-end latency — and for the
// forwarded no-op ioctl that latency must equal the §6.1.1 figures derived
// from the perf constants (35 µs with interrupts, ~3 µs with polling). This
// is the contract that makes the trace output trustworthy: every nanosecond
// of a request's latency is attributed to exactly one architectural hop.
// Past the no-op, a single issuer's leaf spans stay disjoint and each lasts
// exactly its charge, so what they leave uncovered is a wait, never
// double-counted work.

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// tracedNoop builds a paravirtualized guest on a machine configured by cfg,
// enables tracing, and issues iters forwarded no-op ioctls (drm.IoctlInfo, a
// 32-byte _IOR) through it.
func tracedNoop(t *testing.T, cfg paradice.Config, iters int) *trace.Tracer {
	t.Helper()
	m, gk := guestKernel(t, cfg, paradice.PathGPU)
	tr := m.StartTrace()
	t.Cleanup(func() { m.StopTrace() })
	noopLoop(t, m, gk, iters)
	return tr
}

// lastIoctlRoot returns the root group of the last traced ioctl. The last
// one is in steady state for both transports (the first polled op can land
// while the backend is between poll windows).
func lastIoctlRoot(t *testing.T, tr *trace.Tracer) trace.Event {
	t.Helper()
	var root trace.Event
	found := false
	for _, e := range tr.Events() {
		if e.Kind == trace.KindGroup && e.Layer == trace.LayerSyscall && strings.HasPrefix(e.Name, "ioctl ") {
			root, found = e, true
		}
	}
	if !found {
		t.Fatal("no ioctl root span recorded")
	}
	return root
}

// spanSum adds up the leaf work spans attributed to one request.
func spanSum(tr *trace.Tracer, rid uint64) sim.Duration {
	var sum sim.Duration
	for _, e := range tr.Events() {
		if e.Kind == trace.KindSpan && e.RID == rid {
			sum += e.Dur()
		}
	}
	return sum
}

func TestNoopSpanReconciliation(t *testing.T) {
	t.Run("interrupts", func(t *testing.T) {
		tr := tracedNoop(t, paradice.Config{Mode: paradice.Interrupts}, 4)
		root := lastIoctlRoot(t, tr)
		sum := spanSum(tr, root.RID)
		if sum != root.Dur() {
			t.Fatalf("span sum %v != root duration %v for rid %d\n%s",
				sum, root.Dur(), root.RID, dumpRID(tr, root.RID))
		}
		// The §6.1.1 interrupt-mode budget, hop by hop: syscall entry,
		// grant declare, frontend post, kick hypercall, inter-VM IRQ to the
		// driver VM, backend dispatch, grant validate, the 32-byte assisted
		// copy-out, backend completion, response hypercall, inter-VM IRQ
		// back, frontend completion read.
		want := perf.CostSyscall + perf.CostGrantDeclare + perf.CostPost +
			perf.CostHypercall + perf.CostInterVMIRQ +
			perf.CostPost + perf.CostGrantDeclare + perf.Copy(32, 1) + perf.CostComplete +
			perf.CostHypercall + perf.CostInterVMIRQ +
			perf.CostComplete
		if want != 35309*sim.Nanosecond {
			t.Fatalf("cost-model drift: interrupt no-op budget is %v, want 35.309µs (§6.1.1)", want)
		}
		if root.Dur() != want {
			t.Fatalf("interrupt no-op latency %v != budget %v\n%s",
				root.Dur(), want, dumpRID(tr, root.RID))
		}
	})
	t.Run("polling", func(t *testing.T) {
		tr := tracedNoop(t, paradice.Config{Mode: paradice.Polling}, 4)
		root := lastIoctlRoot(t, tr)
		sum := spanSum(tr, root.RID)
		if sum != root.Dur() {
			t.Fatalf("span sum %v != root duration %v for rid %d\n%s",
				sum, root.Dur(), root.RID, dumpRID(tr, root.RID))
		}
		// Steady-state polling replaces both hypercall+IRQ pairs with one
		// cache-line crossing in each direction.
		want := perf.CostSyscall + perf.CostGrantDeclare + perf.CostPost +
			perf.CostPollCross +
			perf.CostPost + perf.CostGrantDeclare + perf.Copy(32, 1) + perf.CostComplete +
			perf.CostPollCross +
			perf.CostComplete
		if root.Dur() != want {
			t.Fatalf("polled no-op latency %v != budget %v\n%s",
				root.Dur(), want, dumpRID(tr, root.RID))
		}
	})
	t.Run("pooled", func(t *testing.T) {
		// A pooled worker serves every forwarded op in turn, so it must
		// serve each one's ID while it runs it and none after: the backend's
		// charges then land on the no-op that caused them.
		tr := tracedNoop(t, paradice.Config{Mode: paradice.Interrupts, Workers: 2}, 4)
		root := lastIoctlRoot(t, tr)
		if sum := spanSum(tr, root.RID); sum != root.Dur() {
			t.Fatalf("span sum %v != root duration %v for rid %d\n%s",
				sum, root.Dur(), root.RID, dumpRID(tr, root.RID))
		}
	})
	t.Run("native", func(t *testing.T) {
		m, err := paradice.NewNative(paradice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		tr := m.StartTrace()
		noopLoop(t, m, m.AppKernel(), 4)
		root := lastIoctlRoot(t, tr)
		if sum := spanSum(tr, root.RID); sum != root.Dur() {
			t.Fatalf("span sum %v != root duration %v for rid %d\n%s",
				sum, root.Dur(), root.RID, dumpRID(tr, root.RID))
		}
		// The local driver copies the 32-byte result out itself.
		if want := perf.CostSyscall + perf.Copy(32, 1); root.Dur() != want {
			t.Fatalf("native no-op latency %v != budget %v\n%s",
				root.Dur(), want, dumpRID(tr, root.RID))
		}
	})
}

// checkLeafSpans checks every traced request's leaf spans: each lies within
// the request's root span, no two overlap, and each post and complete span
// lasts exactly its charge. It returns every request's root keyed by ID and
// the part of its latency no leaf span covers.
func checkLeafSpans(t *testing.T, tr *trace.Tracer) (map[uint64]trace.Event, map[uint64]sim.Duration) {
	t.Helper()
	roots := map[uint64]trace.Event{}
	leaves := map[uint64][]trace.Event{}
	for _, e := range tr.Events() {
		switch {
		case e.RID == 0:
		case e.Kind == trace.KindGroup && e.Layer == trace.LayerSyscall:
			roots[e.RID] = e
		case e.Kind == trace.KindSpan:
			leaves[e.RID] = append(leaves[e.RID], e)
		}
	}
	charge := map[string]sim.Duration{"post": perf.CostPost, "complete": perf.CostComplete}
	uncovered := map[uint64]sim.Duration{}
	for rid, root := range roots {
		spans := leaves[rid]
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		left := root.Dur()
		for i, e := range spans {
			left -= e.Dur()
			if e.Start < root.Start || e.End > root.End {
				t.Errorf("rid %d: %s/%s %v..%v outside root %v..%v", rid, e.Layer, e.Name, e.Start, e.End, root.Start, root.End)
			}
			for _, f := range spans[i+1:] {
				if f.Start < e.End {
					t.Errorf("rid %d: %s/%s %v..%v overlaps %s/%s %v..%v", rid, e.Layer, e.Name, e.Start, e.End, f.Layer, f.Name, f.Start, f.End)
				}
			}
			if want, ok := charge[e.Name]; ok && e.Dur() != want {
				t.Errorf("rid %d: %s/%s lasts %v, its charge is %v", rid, e.Layer, e.Name, e.Dur(), want)
			}
		}
		uncovered[rid] = left
	}
	if t.Failed() {
		for rid := range roots {
			t.Log("\n" + dumpRID(tr, rid))
		}
	}
	return roots, uncovered
}

// sinkWriter spawns one task that opens the load sink and writes size bytes
// to it at each of the given times (at once if a time has passed). It
// returns where the first error lands.
func sinkWriter(g *paradice.Guest, size int, at ...sim.Time) *error {
	var runErr error
	p, err := g.K.NewProcess("writer")
	if err != nil {
		return &err
	}
	p.SpawnTask("writer", func(tk *kernel.Task) {
		fd, err := tk.Open(load.SinkPath, devfile.OWrOnly)
		if err != nil {
			runErr = err
			return
		}
		buf, err := p.Alloc(size)
		if err != nil {
			runErr = err
			return
		}
		for _, when := range at {
			if wait := when.Sub(tk.Sim().Now()); wait > 0 {
				tk.Sim().Sleep(wait)
			}
			if _, err := tk.Write(fd, buf, size); err != nil {
				runErr = err
				return
			}
		}
	})
	return &runErr
}

// TestSingleIssuerLeafSpans carries the reconciliation past the no-op: 8 KiB
// writes to a load sink through the grant-map cache, a first write that
// maps the buffer and a warm one that hits, with and without the software
// TLB and batched grants, and a write parked by a planned handover. Every
// request's leaf spans must be disjoint, each post and complete span must
// last exactly its charge, and an unqueued write's spans must tile it: the
// sink's service time is the request's device span, and nothing is left
// uncovered.
func TestSingleIssuerLeafSpans(t *testing.T) {
	const size = 8 << 10
	// sinkMachine's sink serves n bytes in 2 µs + 1 µs per KiB.
	const service = 2*sim.Microsecond + size/1024*sim.Microsecond
	for _, tc := range []struct {
		name string
		cfg  paradice.Config
	}{
		{"mapcache", paradice.Config{MapCache: true}},
		{"mapcache-tlb-batch", paradice.Config{MapCache: true, TLB: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, g := sinkMachine(t, tc.cfg)
			t.Cleanup(m.Close)
			tr := m.StartTrace()
			runErr := sinkWriter(g, size, 0, 0)
			m.Run()
			if *runErr != nil {
				t.Fatal(*runErr)
			}
			hits, misses, _ := g.Backends[load.SinkPath].MapCacheStats()
			if hits != 1 || misses != 1 {
				t.Fatalf("map cache hits/misses = %d/%d, want 1/1", hits, misses)
			}
			roots, uncovered := checkLeafSpans(t, tr)
			served := map[uint64]sim.Duration{}
			for _, e := range tr.Events() {
				if e.Kind == trace.KindSpan && e.Layer == trace.LayerDevice && e.Name == "sink" {
					served[e.RID] += e.Dur()
				}
			}
			writes := 0
			for rid, root := range roots {
				if !strings.HasPrefix(root.Name, "write ") {
					continue
				}
				writes++
				if uncovered[rid] != 0 || served[rid] != service {
					t.Errorf("rid %d: %v of the write's %v is uncovered and its sink span lasts %v, want none uncovered and the sink's %v service time\n%s",
						rid, uncovered[rid], root.Dur(), served[rid], service, dumpRID(tr, rid))
				}
			}
			if writes != 2 {
				t.Fatalf("%d writes traced, want 2", writes)
			}
		})
	}
	t.Run("parked-by-handover", func(t *testing.T) {
		m, g := sinkMachine(t, paradice.Config{MapCache: true})
		t.Cleanup(m.Close)
		tr := m.StartTrace()
		// The handover starts at kick; its prepare stage boots the successor
		// for CostDriverVMRestart, then the drain parks new posts until the
		// switch completes.
		const kick = sim.Millisecond
		drainStart := sim.Time(kick + perf.CostDriverVMRestart)
		runErr := sinkWriter(g, size, 0, drainStart.Add(sim.Microsecond))
		var hoErr error
		m.Env.Spawn("maintenance", func(p *sim.Proc) {
			p.Sleep(kick)
			hoErr = m.HandoverDriverVM()
		})
		m.Run()
		if hoErr != nil || *runErr != nil {
			t.Fatalf("handover %v, writer %v", hoErr, *runErr)
		}
		if q := g.Frontends[load.SinkPath].QueuedPosts; q != 1 {
			t.Fatalf("parked posts = %d, want 1", q)
		}
		checkLeafSpans(t, tr)
	})
}

// dumpRID renders one request's events for failure messages.
func dumpRID(tr *trace.Tracer, rid uint64) string {
	var b bytes.Buffer
	for _, e := range tr.Events() {
		if e.RID != rid {
			continue
		}
		kind := map[trace.Kind]string{trace.KindSpan: "span", trace.KindGroup: "group", trace.KindInstant: "inst"}[e.Kind]
		b.WriteString(kind)
		b.WriteString(" ")
		b.WriteString(e.VM)
		b.WriteString("/")
		b.WriteString(e.Layer)
		b.WriteString(" ")
		b.WriteString(e.Name)
		b.WriteString(" ")
		b.WriteString(e.Start.String())
		b.WriteString("..")
		b.WriteString(e.End.String())
		b.WriteString(" (")
		b.WriteString(e.Dur().String())
		b.WriteString(")\n")
	}
	return b.String()
}
