package paradice_test

// Span reconciliation: the work spans a traced request emits must tile its
// root span exactly — sum of leaf spans == end-to-end latency — and for the
// forwarded no-op ioctl that latency must equal the §6.1.1 figures derived
// from the perf constants (35 µs with interrupts, ~3 µs with polling). This
// is the contract that makes the trace output trustworthy: every nanosecond
// of a request's latency is attributed to exactly one architectural hop.

import (
	"bytes"
	"strings"
	"testing"

	"paradice"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// tracedNoop builds a paravirtualized guest, enables tracing, and issues
// iters forwarded no-op ioctls (drm.IoctlInfo, a 32-byte _IOR) through it.
func tracedNoop(t *testing.T, mode paradice.Mode, iters int) *trace.Tracer {
	t.Helper()
	m, gk := guestKernel(t, paradice.Config{Mode: mode}, paradice.PathGPU)
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
		tr := tracedNoop(t, paradice.Interrupts, 4)
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
		tr := tracedNoop(t, paradice.Polling, 4)
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
