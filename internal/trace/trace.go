// Package trace is the simulation's observability layer: deterministic,
// virtual-clock-timestamped request tracing plus aggregate metrics.
//
// The paper's entire argument is a latency budget across layers — §6.1.1
// decomposes the 35 µs forwarded no-op into inter-VM interrupts, ring
// serialization, and hypercall costs — and this package makes that budget a
// first-class output of every simulation run instead of something derived by
// hand from the perf constants. Each system call opens a root span, closed
// where the call ends by Tracer.Root with the calling task's QoS class and
// the errno the call returned, for a local and a forwarded operation alike:
// that is where a flight-recorder digest takes its class and errno from.
// Every charge the call pays on the way (syscall entry, frontend post,
// hypercall, grant validate, copy, backend dispatch, driver and device work,
// completion) is a leaf work span recorded by perf.Spend, the only call that
// charges virtual time, under the layer that paid; work no request owns is
// spent under request 0. So a leaf span is exactly one charge and the leaf
// spans of one process never overlap. The only other leaf spans are the three
// projected deliveries — inter-vm-irq and device-irq from the hypervisor,
// poll-cross from the CVD transport — which cover a latency the receiver pays
// in callback context, where nothing is charged. For the native and the
// forwarded no-op the work spans tile the root span exactly: the
// span-reconciliation test enforces sum-of-work-spans == end-to-end latency.
// What no span covers — a wait for a device, a slot or a handover drain — is
// the queue residual.
//
// # Design rules
//
//   - Observability reads the clock, it never advances it. No method here
//     charges virtual time, so an instrumented run and an uninstrumented run
//     of the same seed produce bit-identical timings.
//   - Zero cost when disabled. Get returns nil when no tracer is installed,
//     and every Tracer method is nil-receiver-safe, so instrumented hot
//     paths pay one field load and nothing else — no allocations, no
//     branches beyond the nil checks (bench_test.go asserts allocs == 0).
//   - Deterministic output. Events are recorded in emission order, which is
//     fully determined by the (deterministic) simulation; metric dumps are
//     sorted; the Chrome export assigns pids/tids in first-seen order. Same
//     seed + same config ⇒ byte-identical trace file and metrics dump (the
//     stress harness verifies this across seeds).
//
// Like the faults package, the tracer is installed on the *sim.Env so layers
// deep in the stack (hypervisor, IOMMU, scheduler) can find it without
// plumbing a handle through every constructor.
package trace

import (
	"io"

	"paradice/internal/sim"
)

// Layer names used as the Chrome "thread" of a span. One process per VM,
// one thread per layer keeps Perfetto's timeline readable.
const (
	LayerSyscall    = "syscall"
	LayerFE         = "cvd-fe"
	LayerHV         = "hv"
	LayerIRQ        = "irq"
	LayerBE         = "cvd-be"
	LayerDriver     = "driver"
	LayerDevice     = "device"
	LayerSupervisor = "supervisor"
	LayerFaults     = "faults"
	LayerSched      = "sched"
	LayerApp        = "app" // application CPU time between system calls
)

// Kind classifies an event for the reconciliation rules.
type Kind uint8

// Event kinds.
const (
	// KindSpan is a leaf work span: a closed interval of virtual time during
	// which exactly one perf cost was being charged (perf.Spend) or one
	// interrupt was in flight. A single issuer's work spans never overlap and
	// never double-count, which is what makes sum-of-spans == end-to-end
	// latency checkable.
	KindSpan Kind = iota
	// KindGroup is an enclosing span (a request's root, the backend's
	// execute envelope, a supervisor recovery episode): useful nesting for
	// the timeline, excluded from tiling sums.
	KindGroup
	// KindInstant is a point event (a fault injection, a dropped IRQ, a
	// supervisor state change).
	KindInstant
)

// Event is one recorded trace event. Start and End are virtual-clock values;
// End == Start for instants.
type Event struct {
	Kind Kind
	// Class and Errno are set on a request's root group only (Tracer.Root):
	// the calling task's QoS class and the errno the system call returned.
	Class  uint8
	Errno  int32
	RID    uint64 // request ID; 0 = not attributable to one request
	VM     string // Chrome "process": the VM (or pseudo-VM) where time passed
	Layer  string // Chrome "thread": the architectural layer
	Name   string
	Start  sim.Time
	End    sim.Time
	Detail string // optional free-form annotation
}

// Dur returns the event's virtual duration.
func (e Event) Dur() sim.Duration { return e.End.Sub(e.Start) }

// Tracer records events and metrics for one simulation environment. All
// mutation happens from simulation context (one goroutine at a time under
// the sim hand-off discipline), so no internal locking is needed.
//
// The zero Tracer is not usable; construct with New and attach with Install.
// A nil *Tracer is valid everywhere: every method no-ops, which is how
// disabled tracing stays off the hot path.
type Tracer struct {
	env      *sim.Env
	events   []Event
	byProc   map[*sim.Proc]uint64 // proc -> request ID binding
	nextRID  uint64
	reg      *Registry
	flight   *FlightRecorder // nil unless armed
	noRetain bool            // drop events after forwarding (long armed runs)
}

// New returns an empty tracer. Attach it to an environment with Install.
func New() *Tracer {
	return &Tracer{
		byProc: make(map[*sim.Proc]uint64),
		reg:    newRegistry(),
	}
}

// Install attaches a tracer to an environment, replacing any previous one.
func Install(env *sim.Env, t *Tracer) {
	if t != nil {
		t.env = env
	}
	env.Tracer = t
}

// Uninstall detaches the environment's tracer.
func Uninstall(env *sim.Env) { env.Tracer = nil }

// Get returns the environment's tracer, or nil when env is nil or nothing is
// installed. This is the only call instrumented production code makes to
// find the tracer; a nil result makes every subsequent call a no-op.
func Get(env *sim.Env) *Tracer {
	if env == nil {
		return nil
	}
	t, _ := env.Tracer.(*Tracer)
	return t
}

// Now reads the virtual clock. Returns 0 on a nil tracer — callers always
// guard the event emission, never the clock read.
func (t *Tracer) Now() sim.Time {
	if t == nil {
		return 0
	}
	return t.env.Now()
}

// NewRID allocates the next request ID (1-based; 0 means "no request").
func (t *Tracer) NewRID() uint64 {
	if t == nil {
		return 0
	}
	t.nextRID++
	return t.nextRID
}

// Bind attributes proc's subsequent charges to request rid, so layers that
// only see the Env (hypervisor, IOMMU) can label their spans via RIDOf.
func (t *Tracer) Bind(p *sim.Proc, rid uint64) {
	if t == nil || p == nil {
		return
	}
	t.byProc[p] = rid
}

// Unbind removes proc's request binding.
func (t *Tracer) Unbind(p *sim.Proc) {
	if t == nil || p == nil {
		return
	}
	delete(t.byProc, p)
}

// RIDOf returns the request bound to proc, or 0. Safe on a nil proc
// (scheduler/callback context).
func (t *Tracer) RIDOf(p *sim.Proc) uint64 {
	if t == nil || p == nil {
		return 0
	}
	return t.byProc[p]
}

// Span records a leaf work span. Its callers are perf.Spend and the three
// projected deliveries; everything else spends. Zero-duration spans are
// dropped: they contribute nothing to the latency budget and only clutter
// the timeline.
func (t *Tracer) Span(rid uint64, vm, layer, name string, start, end sim.Time) {
	if t == nil || end == start {
		return
	}
	t.record(Event{Kind: KindSpan, RID: rid, VM: vm, Layer: layer, Name: name, Start: start, End: end})
}

// Group records an enclosing span (execute envelope, recovery episode).
// Group spans may contain work spans and other groups; they are excluded
// from tiling sums.
func (t *Tracer) Group(rid uint64, vm, layer, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindGroup, RID: rid, VM: vm, Layer: layer, Name: name, Start: start, End: end})
}

// Root records a request's root group, the syscall-layer group that ends
// it, with what the caller got back: the task's QoS class and the errno
// the system call returned (0 on success). The armed flight recorder
// finalizes the request's digest from it.
func (t *Tracer) Root(rid uint64, vm, name string, start, end sim.Time, class uint8, errno int32) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindGroup, Class: class, Errno: errno, RID: rid, VM: vm, Layer: LayerSyscall, Name: name, Start: start, End: end})
}

// Instant records a point event at the current virtual time.
func (t *Tracer) Instant(rid uint64, vm, layer, name, detail string) {
	if t == nil {
		return
	}
	now := t.env.Now()
	t.record(Event{Kind: KindInstant, RID: rid, VM: vm, Layer: layer, Name: name, Start: now, End: now, Detail: detail})
}

// record retains e (unless retention is off) and forwards it to the armed
// flight recorder.
func (t *Tracer) record(e Event) {
	if !t.noRetain {
		t.events = append(t.events, e)
	}
	t.flight.onEvent(e)
}

// Events returns the recorded events in emission order. The slice is the
// tracer's own backing store; callers must not mutate it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Add increments counter name by n.
func (t *Tracer) Add(name string, n uint64) {
	if t == nil {
		return
	}
	t.reg.add(name, n)
}

// Set stores v as gauge name (last write wins; e.g. current MTTR).
func (t *Tracer) Set(name string, v uint64) {
	if t == nil {
		return
	}
	t.reg.set(name, v)
}

// Observe records one duration sample into histogram name.
func (t *Tracer) Observe(name string, d sim.Duration) {
	if t == nil {
		return
	}
	t.reg.observe(name, d)
}

// ObserveCount records one unit-less sample (a batch size, a vector length)
// into the count histogram name.
func (t *Tracer) ObserveCount(name string, n uint64) {
	if t == nil {
		return
	}
	t.reg.observeCount(name, n)
}

// Metrics returns the tracer's registry, or nil on a nil tracer.
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// WriteMetrics writes the plain-text metrics dump (sorted, deterministic).
func (t *Tracer) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.Dump(w)
}

// ArmFlightRecorder attaches a flight recorder built from cfg: from now on
// every emitted event is forwarded into the recorder's digest pipeline.
// Arming never advances the virtual clock, so an armed and a disarmed run
// of the same seed stay bit-identical in time.
func (t *Tracer) ArmFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if t == nil {
		return nil
	}
	fr := NewFlightRecorder(cfg)
	fr.reg = t.reg
	t.flight = fr
	return fr
}

// Flight returns the armed flight recorder, or nil (on a nil tracer too).
// A nil recorder no-ops everywhere, so callers annotate unconditionally.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// SetEventRetention controls whether emitted events are retained in the
// unbounded Events() slice. Long always-on runs arm the flight recorder
// and turn retention off: digests and outlier trees stay (bounded), the
// raw firehose does not. On by default.
func (t *Tracer) SetEventRetention(on bool) {
	if t == nil {
		return
	}
	t.noRetain = !on
}

// EnableSched routes the environment's scheduler decisions through this
// tracer as structured instants (plus sched.* counters). Off by default:
// scheduler events are high-volume and most traces only need request spans.
// The instants obey event retention like every other event.
func (t *Tracer) EnableSched(env *sim.Env) {
	if t == nil {
		return
	}
	env.Observer = t
}

// SchedCallback implements sim.SchedObserver.
func (t *Tracer) SchedCallback(at sim.Time) {
	if t == nil {
		return
	}
	t.reg.add("sched.callbacks", 1)
	t.record(Event{Kind: KindInstant, VM: "sim", Layer: LayerSched, Name: "callback", Start: at, End: at})
}

// SchedResume implements sim.SchedObserver.
func (t *Tracer) SchedResume(at sim.Time, proc string) {
	if t == nil {
		return
	}
	t.reg.add("sched.resumes", 1)
	t.record(Event{Kind: KindInstant, VM: "sim", Layer: LayerSched, Name: "resume", Start: at, End: at, Detail: proc})
}
