// Command paradice-trace runs an instrumented Paradice machine and exports
// the cross-layer request trace: a Chrome trace_event JSON file (load it in
// Perfetto or chrome://tracing — one "process" per VM, one "thread" per
// architectural layer) plus a plain-text metrics dump. It also prints the
// §6.1.1 latency breakdown of the last forwarded no-op ioctl, hop by hop,
// reconciled against the end-to-end latency; it exits non-zero, after
// writing every output, when the spans do not add up to that latency.
//
// Every run traces 8 forwarded no-ops, then a 16×16 GPU matmul.
//
// Usage:
//
//	paradice-trace                          # interrupts
//	paradice-trace -mode polling            # polled transport
//	paradice-trace -out t.json -metrics m.txt
//	paradice-trace -sched                   # include scheduler events
//	paradice-trace -outliers                # arm the flight recorder and
//	                                        # dump digests, per-class
//	                                        # attribution, and the span
//	                                        # trees of requests over 20 µs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"paradice"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
	"paradice/internal/workload"
)

// The traced workload: noopOps forwarded no-op ioctls, then a GPU matmul of
// order matmulOrder. With -outliers, a request slower than outlierThreshold
// keeps its full span tree.
const (
	noopOps          = 8
	matmulOrder      = 16
	outlierThreshold = 20 * sim.Microsecond
)

func main() {
	modeFlag := flag.String("mode", "interrupts", `CVD transport: "interrupts" or "polling"`)
	out := flag.String("out", "trace.json", "Chrome trace_event output file (empty = skip)")
	metricsOut := flag.String("metrics", "", "metrics dump output file (default stdout)")
	sched := flag.Bool("sched", false, "include scheduler events in the trace")
	outliers := flag.Bool("outliers", false, "arm the flight recorder; dump digests, attribution, and outlier trees")
	flag.Parse()

	var mode paradice.Mode
	switch *modeFlag {
	case "interrupts":
		mode = paradice.Interrupts
	case "polling":
		mode = paradice.Polling
	default:
		log.Fatalf("unknown -mode %q (want interrupts or polling)", *modeFlag)
	}

	m, err := paradice.New(paradice.Config{Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	g, err := m.AddGuest("guest1", paradice.Linux)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU); err != nil {
		log.Fatal(err)
	}
	tr := m.StartTrace()
	if *sched {
		tr.EnableSched(m.Env)
	}
	var fr *trace.FlightRecorder
	if *outliers {
		fr = tr.ArmFlightRecorder(trace.FlightConfig{
			Threshold: outlierThreshold,
		})
	}

	// The forwarded no-op of §6.1.1: an _IOR('d', 0x05, 32) Info ioctl
	// crossing the full guest -> driver VM path and copying 32 bytes back.
	p, err := g.K.NewProcess("noop")
	if err != nil {
		log.Fatal(err)
	}
	task := p.Go("loop", func(t *kernel.Task) error {
		fd, err := t.Open(paradice.PathGPU, 2)
		if err != nil {
			return err
		}
		arg, err := p.Alloc(32)
		if err != nil {
			return err
		}
		for i := 0; i < noopOps; i++ {
			if _, err := t.Ioctl(fd, drm.IoctlInfo, arg); err != nil {
				return err
			}
		}
		return nil
	})
	m.Run()
	if err := task.Err(); err != nil {
		log.Fatal(err)
	}

	// The breakdown targets the last no-op, so render it before the matmul
	// workload appends its own (non-no-op) ioctls to the trace.
	reconciled := printBreakdown(tr, *modeFlag)

	if _, err := workload.RunMatmul(m.Env, g.K, matmulOrder, 1); err != nil {
		log.Fatal(err)
	}

	// The flight-recorder dump: ring digests (hops tiling each request's
	// end-to-end latency), the per-class critical-path attribution table,
	// and the full span tree of every captured outlier.
	if fr != nil {
		fmt.Println("\n=== flight recorder ===")
		if err := fr.WriteDump(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s\n", len(tr.Events()), *out)
	}

	w := os.Stdout
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	} else {
		fmt.Println("\n=== metrics ===")
	}
	if err := tr.WriteMetrics(w); err != nil {
		log.Fatal(err)
	}
	if *metricsOut != "" {
		fmt.Printf("wrote metrics dump to %s\n", *metricsOut)
	}
	if !reconciled {
		log.Fatal("the no-op's spans do not reconcile with its end-to-end latency")
	}
}

// printBreakdown renders the last no-op ioctl's latency budget hop by hop —
// the trace-derived equivalent of the paper's §6.1.1 decomposition — and
// reports whether its spans add up to its end-to-end latency.
func printBreakdown(tr *trace.Tracer, mode string) bool {
	var root trace.Event
	found := false
	for _, e := range tr.Events() {
		if e.Kind == trace.KindGroup && e.Layer == trace.LayerSyscall && strings.HasPrefix(e.Name, "ioctl ") {
			root, found = e, true
		}
	}
	if !found {
		fmt.Println("no ioctl recorded")
		return true
	}
	fmt.Printf("=== forwarded no-op breakdown (%s, request %d) ===\n", mode, root.RID)
	var sum int64
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan || e.RID != root.RID {
			continue
		}
		d := int64(e.Dur())
		sum += d
		fmt.Printf("  %-10s %-8s %-14s %8d ns\n", e.VM, e.Layer, e.Name, d)
	}
	fmt.Printf("  %-10s %-8s %-14s %8d ns (end-to-end %d ns)\n",
		"", "", "total", sum, int64(root.Dur()))
	return sum == int64(root.Dur())
}
