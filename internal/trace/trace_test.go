package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"paradice/internal/sim"
)

// The nil tracer must be inert: every method a no-op, every query a zero
// value. This is the whole disabled-tracing contract.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 || tr.NewRID() != 0 {
		t.Fatal("nil tracer returned non-zero values")
	}
	tr.Span(1, "vm", LayerFE, "post", 0, 100)
	tr.Group(1, "vm", LayerSyscall, "ioctl", 0, 100)
	tr.Add("c", 1)
	tr.Set("g", 1)
	tr.Observe("h", 100)
	if tr.Events() != nil || tr.Metrics() != nil {
		t.Fatal("nil tracer exposed state")
	}
	var b bytes.Buffer
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil tracer wrote metrics: %q", b.String())
	}
	b.Reset()
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer's chrome output is not JSON: %v", err)
	}
}

func TestGetOnUninstalledEnvIsNil(t *testing.T) {
	if Get(nil) != nil {
		t.Fatal("Get(nil) != nil")
	}
	env := sim.NewEnv()
	if Get(env) != nil {
		t.Fatal("Get on a fresh env should be nil")
	}
	tr := New()
	Install(env, tr)
	defer Uninstall(env)
	if Get(env) != tr {
		t.Fatal("Get did not return the installed tracer")
	}
}

// Zero-duration spans are dropped (charges in callback context no-op), but
// zero-duration groups and instants are kept.
func TestZeroDurationSpanDropped(t *testing.T) {
	env := sim.NewEnv()
	tr := New()
	Install(env, tr)
	defer Uninstall(env)
	tr.Span(1, "vm", LayerFE, "noop-charge", 500, 500)
	tr.Span(1, "vm", LayerFE, "real-charge", 500, 900)
	tr.Group(1, "vm", LayerSyscall, "empty-group", 500, 500)
	tr.Instant(1, "vm", LayerFaults, "point", "")
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3 (zero-duration span dropped)", len(ev))
	}
	if ev[0].Name != "real-charge" || ev[0].Dur() != 400 {
		t.Fatalf("unexpected first event %+v", ev[0])
	}
}

// Request IDs are 1-based and sequential, and the process serving one holds
// it (a nil process, callback context, serves none).
func TestRIDBinding(t *testing.T) {
	env := sim.NewEnv()
	tr := New()
	Install(env, tr)
	defer Uninstall(env)
	if r1, r2 := tr.NewRID(), tr.NewRID(); r1 != 1 || r2 != 2 {
		t.Fatalf("rids not 1-based sequential: %d, %d", r1, r2)
	}
	var done bool
	env.Spawn("p", func(p *sim.Proc) {
		if got := p.RID(); got != 0 {
			t.Errorf("fresh process serves rid %d, want 0", got)
		}
		p.SetRID(7)
		if got := env.CurrentProc().RID(); got != 7 {
			t.Errorf("RID after SetRID(7) = %d, want 7", got)
		}
		p.SetRID(0)
		if got := p.RID(); got != 0 {
			t.Errorf("RID after SetRID(0) = %d, want 0", got)
		}
		done = true
	})
	env.Run()
	if !done {
		t.Fatal("proc never ran")
	}
	var nilProc *sim.Proc
	nilProc.SetRID(1)
	if env.CurrentProc().RID() != 0 || nilProc.RID() != 0 {
		t.Fatal("a nil process serves a request")
	}
}

// The metrics dump is sorted and stable: the same registry contents produce
// the same bytes regardless of insertion order.
func TestMetricsDumpDeterministic(t *testing.T) {
	build := func(names []string) string {
		env := sim.NewEnv()
		tr := New()
		Install(env, tr)
		defer Uninstall(env)
		for _, n := range names {
			tr.Add("c."+n, 2)
			tr.Set("g."+n, 3)
			tr.Observe("h."+n, 1500)
			tr.Observe("h."+n, 0)
		}
		var b bytes.Buffer
		if err := tr.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if a != b {
		t.Fatalf("dump depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"counter c.alpha 2\n",
		"gauge g.beta 3\n",
		"hist h.gamma count=2 sum=1500ns mean=750ns\n",
		"hist h.alpha bucket lt=2^0 1\n",  // the zero-duration sample
		"hist h.alpha bucket lt=2^11 1\n", // 1500ns: 2^10 <= 1500 < 2^11
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("dump missing %q:\n%s", want, a)
		}
	}
}

// The Chrome export is valid JSON with one process per VM, one thread per
// (vm, layer), and microsecond timestamps carrying nanosecond precision.
func TestWriteChrome(t *testing.T) {
	env := sim.NewEnv()
	tr := New()
	Install(env, tr)
	defer Uninstall(env)
	tr.Span(1, "guest1", LayerSyscall, "syscall", 0, 500)
	tr.Span(1, "hv", LayerHV, "hypercall", 500, 900)
	tr.Span(1, "guest1", LayerFE, "post", 900, 1300)
	tr.Group(1, "guest1", LayerSyscall, "ioctl /dev/x", 0, 35309)
	tr.Instant(0, "driver-vm", LayerSupervisor, "state:healthy", "boot")

	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   json.RawMessage `json:"ts"`
			Dur  json.RawMessage `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b.String())
	}
	// 3 VMs -> 3 process_name records; 4 (vm,layer) pairs -> 4 thread_name
	// records; then the 5 events.
	if len(doc.TraceEvents) != 3+4+5 {
		t.Fatalf("got %d records, want 12:\n%s", len(doc.TraceEvents), b.String())
	}
	// The group's duration must render as 35.309 µs exactly.
	if !bytes.Contains(b.Bytes(), []byte(`"dur":35.309`)) {
		t.Fatalf("missing nanosecond-precise duration 35.309:\n%s", b.String())
	}
	// Same VM ⇒ same pid across layers; different VM ⇒ different pid.
	byName := func(name string) (pid, tid int) {
		for _, e := range doc.TraceEvents {
			if e.Name == name && e.Ph != "M" {
				return e.Pid, e.Tid
			}
		}
		t.Fatalf("event %q not found", name)
		return 0, 0
	}
	sysPid, sysTid := byName("syscall")
	hvPid, _ := byName("hypercall")
	fePid, feTid := byName("post")
	if sysPid != fePid {
		t.Fatal("same VM mapped to different pids")
	}
	if hvPid == sysPid {
		t.Fatal("different VMs share a pid")
	}
	if sysTid == feTid {
		t.Fatal("different layers share a tid within one VM")
	}
}

func TestUsecFormatting(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{35309, "35.309"}, {-1500, "-1.500"},
	} {
		if got := usec(c.ns); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}
