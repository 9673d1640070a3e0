// Command benchmark is the repository benchmark. It runs four seeded
// workloads against a Paradice machine, driving it only through its public
// calls, and reports each on both clocks: virtual time for the modelled
// machine and host time for the simulator. Every (workload, rep) runs in a
// fresh child process, one at a time. A traced run (-trace 1) adds a
// per-layer breakdown. See README.md.
//
// Usage:
//
//	benchmark [-workload name|all] [-seed n] [-reps n] [-seconds s] [-trace 0|1]
//
// The last line a workload prints is a JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if err := cli(os.Args[1:], os.Stdout, fullScale); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are a run's flags.
type options struct {
	seed    int64
	reps    int
	seconds float64
	trace   bool
}

// cli runs the command; sc sizes the reps a -child invocation runs.
func cli(args []string, stdout io.Writer, sc scale) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	reps := fs.Int("reps", 0, "reps (untraced) or rep pairs (traced); 0: the workload's default")
	seconds := fs.Float64("seconds", 0, "if set and -reps is not, keep adding reps for this long")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	child := fs.Bool("child", false, "run one rep in this process and print its raw result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traceFlag)
	}
	o := options{seed: *seed, reps: *reps, seconds: *seconds, trace: *traceFlag == 1}
	list := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		list = []*workload{w}
	}
	if *child {
		if len(list) != 1 {
			return errors.New("-child runs one workload")
		}
		res, err := runRep(list[0], o.seed, o.trace, sc)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}
	for _, w := range list {
		s, err := collect(w, o, func(traced bool) (*repResult, error) { return spawn(w, o.seed, traced) })
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := report(stdout, w, o, s); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// maxReps caps a -seconds run.
const maxReps = 99

// collect runs reps until the options say stop. A traced run makes pairs:
// an untraced rep, for the overhead base, then a traced one.
func collect(w *workload, o options, runOne func(traced bool) (*repResult, error)) (*summary, error) {
	least := w.reps
	if o.trace {
		least = 1
	}
	if o.reps > 0 {
		least = o.reps
	} else if o.seconds > 0 {
		least = min(least, 3)
	}
	s := &summary{}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= least {
			if o.reps > 0 || o.seconds <= 0 || i >= maxReps {
				break
			}
			elapsed := time.Since(start)
			if (elapsed + elapsed/time.Duration(i)).Seconds() > o.seconds {
				break
			}
		}
		u, err := runOne(false)
		if err != nil {
			return nil, err
		}
		s.untraced = append(s.untraced, u)
		if o.trace {
			t, err := runOne(true)
			if err != nil {
				return nil, err
			}
			s.traced = append(s.traced, t)
		}
	}
	return s, nil
}

// spawn runs one rep in a child process. It adds the child's peak RSS and
// the time of the reference job, run here before and after the child.
func spawn(w *workload, seed int64, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	var out, diag bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &diag
	ref := refJob()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rep: %w\n%s", err, diag.Bytes())
	}
	ref = (ref + refJob()) / 2
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("rep output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for the rep's process")
	}
	res.H["peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	res.H["host.ref_ms"] = float64(ref.Nanoseconds()) / 1e6
	return &res, nil
}

// result is the JSON line that ends a workload's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a workload's metrics, one per line, and then the JSON
// result. Only a run whose checks all passed gets this far.
func report(w io.Writer, wl *workload, o options, s *summary) error {
	vals, err := s.values()
	if err != nil {
		return err
	}
	list, mode := endToEnd, "untraced"
	if o.trace {
		list, mode = perLayer, "traced"
	}
	first := s.untraced[0]
	fmt.Fprintf(w, "# %s seed=%d reps=%d %s\n", wl.name, o.seed, len(s.untraced), mode)
	for _, n := range first.Notes {
		fmt.Fprintf(w, "#   %s\n", n)
	}
	res := result{Correct: true, Attempted: first.Attempted, Failed: first.Failed, Metrics: make(map[string]metricValue)}
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return json.NewEncoder(w).Encode(res)
}
