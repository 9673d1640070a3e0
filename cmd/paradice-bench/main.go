// Command paradice-bench regenerates every table and figure of the paper's
// evaluation (§6) from the simulation and prints them as text series,
// paper-value alongside measured where the paper states a number.
//
// Usage:
//
//	paradice-bench                 # run everything at full fidelity
//	paradice-bench -quick          # reduced iteration counts (~seconds)
//	paradice-bench -exp fig2,fig5  # selected experiments
//	paradice-bench -list           # list experiment IDs
//	paradice-bench -json           # machine-readable results on stdout
//	paradice-bench -trace DIR      # per-machine Chrome traces + metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"paradice"
	"paradice/internal/bench"
	"paradice/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts for a fast pass")
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout")
	traceDir := flag.String("trace", "", "directory for per-machine Chrome traces and metrics dumps")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// With -trace, every machine an experiment builds gets a tracer; the
	// trace and metrics of machine N of experiment E land in
	// DIR/E-NN.trace.json and DIR/E-NN.metrics.txt after the experiment.
	// The tracers are kept, not the machines: experiments close their
	// machines, which detaches the tracers but leaves them readable.
	var traced []*trace.Tracer
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bench.OnMachine = func(m *paradice.Machine) {
			traced = append(traced, m.StartTrace())
		}
	}

	type jsonResult struct {
		ID    string      `json:"id"`
		Title string      `json:"title"`
		Rows  []bench.Row `json:"rows,omitempty"`
		Error string      `json:"error,omitempty"`
	}
	var results []jsonResult

	failed := false
	for _, e := range selected {
		if !*jsonOut {
			fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		}
		rows, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  ERROR: %v\n", err)
			results = append(results, jsonResult{ID: e.ID, Title: e.Title, Error: err.Error()})
			failed = true
		} else {
			results = append(results, jsonResult{ID: e.ID, Title: e.Title, Rows: rows})
			if !*jsonOut {
				printRows(rows, e.IsTable)
				fmt.Println()
			}
		}
		for i, tr := range traced {
			if err := dumpTrace(tr, *traceDir, e.ID, i); err != nil {
				fmt.Fprintf(os.Stderr, "  trace export: %v\n", err)
				failed = true
			}
		}
		traced = traced[:0]
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// dumpTrace writes one traced machine's Chrome trace and metrics dump.
func dumpTrace(tr *trace.Tracer, dir, exp string, n int) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-%02d", exp, n))
	if err := writeFile(base+".trace.json", tr.WriteChrome); err != nil {
		return err
	}
	return writeFile(base+".metrics.txt", tr.WriteMetrics)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRows(rows []bench.Row, table bool) {
	for _, r := range rows {
		// The "~" marks an approximate quantile: the histogram spilled its
		// exact reservoir and the value is a log2-bucket upper bound.
		mark := " "
		if r.Approx {
			mark = "~"
		}
		switch {
		case table && r.Paper != 0:
			fmt.Printf("  %-16s %-52s %s%8.0f %-10s (paper: %.0f)\n", r.Series, r.X, mark, r.Value, r.Unit, r.Paper)
		case table:
			fmt.Printf("  %-16s %-52s %s%8.0f %s\n", r.Series, r.X, mark, r.Value, r.Unit)
		case r.Paper != 0:
			fmt.Printf("  %-16s %-22s %s%10.3f %-6s (paper: %.1f)\n", r.Series, r.X, mark, r.Value, r.Unit, r.Paper)
		default:
			fmt.Printf("  %-16s %-22s %s%10.3f %s\n", r.Series, r.X, mark, r.Value, r.Unit)
		}
	}
}
