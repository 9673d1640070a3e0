// Package faults is the deterministic fault-injection layer of the
// simulation. Paradice's isolation claims (§4.1, §4.2, §8 of the paper) are
// about what happens when something goes wrong — a compromised guest
// scribbles on the shared ring page, a hypercall fails, the driver VM dies
// mid-operation — and this package makes "something goes wrong" a
// first-class, reproducible input instead of a hand-written test case.
//
// A Plan decides, deterministically from a seed or an explicit script,
// whether each named injection point fires. Layers consult the plan at
// their existing choke points through Point, which is a no-op (nil) when no
// plan is installed, so the production data path pays one map lookup and
// nothing else.
//
// # Injection points
//
// Point names are plain strings so any layer (or test harness) can define
// its own. The core registry, wired through the repository:
//
//	grant.declare        CVD frontend: grant-table declaration fails as if
//	                     the table page were full (guest sees ENOMEM).
//	grant.validate       hypervisor: a driver memory operation is denied as
//	                     if no covering grant existed (driver sees EFAULT).
//	grant.validate.skip  hypervisor: the grant check is WEAKENED — any entry
//	                     with a matching reference passes, kind and range
//	                     unchecked. This is a deliberate bug-injection point
//	                     whose only purpose is proving the stress harness
//	                     catches a broken isolation invariant; nothing
//	                     enables it outside that self-test.
//	hv.copy              hypervisor: CopyToGuest/CopyFromGuest hypercall
//	                     fails with EFAULT before touching memory.
//	hv.map, hv.unmap     hypervisor: MapToGuest/UnmapFromGuest fails.
//	hv.irq.drop          hypervisor: an inter-VM interrupt is lost.
//	hv.irq.dup           hypervisor: an inter-VM interrupt is delivered
//	                     twice (ISRs must be idempotent).
//	cvd.backend.die      CVD backend: the dispatcher dies mid-run, as when
//	                     the driver VM crashes; posted operations are never
//	                     answered until a Reconnect.
//	cvd.heartbeat.drop   CVD backend: a watchdog heartbeat is consumed but
//	                     never acknowledged — the driver VM looks dead to the
//	                     supervisor while still serving requests (tests the
//	                     K-miss threshold against false positives).
//	cvd.heartbeat.delay  CVD backend: the heartbeat acknowledgement is
//	                     deferred by Arg nanoseconds of virtual time — a
//	                     slow-but-healthy driver VM.
//	machine.restart.fail driver VM restart: the replacement driver VM fails
//	                     to boot; the machine is untouched and the supervisor
//	                     charges the attempt against its backoff budget.
//	machine.handover.fail
//	                     planned handover: the attempt is refused before the
//	                     successor boots; the machine is untouched.
//	handover.warm.fail   planned handover: a channel's successor pre-warm
//	                     (device re-probe / cache transfer) fails during the
//	                     switch stage; the handover aborts back to the
//	                     still-live predecessor.
//	handover.drain.timeout
//	                     planned handover: the quiesce stage gives up
//	                     immediately, as if in-flight operations never
//	                     finished draining; the handover aborts and parked
//	                     posts proceed against the predecessor.
//	iommu.translate      IOMMU: a device DMA access faults.
//	driver.evil          test drivers: attempt an undeclared memory
//	                     operation (the compromised-driver probe the stress
//	                     harness pairs with the canary checks).
//
// # Reproduction
//
// Everything a Plan does derives from its seed (or explicit FailAt
// scripts), and the simulation underneath is already deterministic, so a
// failing stress run is reproduced by re-running with the printed seed —
// see the "Fault injection" section of EXPERIMENTS.md.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Plan decides which injection points fire. A Plan belongs to one
// simulation environment at a time; all of its decisions are deterministic
// in the seed and the (deterministic) order the simulation consults it.
type Plan struct {
	seed     int64
	rng      *rand.Rand
	probs    map[string]float64
	scripts  map[string]map[int]uint64 // point -> hit number -> payload
	hits     map[string]int
	injected map[string]int
}

// New returns an empty plan: no point fires until Probability or FailAt
// arms it. The seed feeds both the plan's own coin flips and Rand.
func New(seed int64) *Plan {
	return &Plan{
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		probs:    make(map[string]float64),
		scripts:  make(map[string]map[int]uint64),
		hits:     make(map[string]int),
		injected: make(map[string]int),
	}
}

// Rand exposes the plan's deterministic random source, for harnesses that
// generate workloads or corruption patterns under the same seed.
func (p *Plan) Rand() *rand.Rand { return p.rng }

// Probability arms point to fire with probability prob on every
// consultation. Returns the plan for chaining.
func (p *Plan) Probability(point string, prob float64) *Plan {
	p.probs[point] = prob
	return p
}

// FailAt scripts point to fire on exactly its hit-th consultation
// (1-based). Returns the plan for chaining.
func (p *Plan) FailAt(point string, hit int) *Plan { return p.FailAtWith(point, hit, 0) }

// FailAtWith is FailAt with a payload the injection site can interpret
// (an errno, a byte count — site-defined).
func (p *Plan) FailAtWith(point string, hit int, arg uint64) *Plan {
	s := p.scripts[point]
	if s == nil {
		s = make(map[int]uint64)
		p.scripts[point] = s
	}
	s[hit] = arg
	return p
}

// Hits reports how many times point has been consulted.
func (p *Plan) Hits(point string) int { return p.hits[point] }

// Injected reports how many times point actually fired.
func (p *Plan) Injected(point string) int { return p.injected[point] }

// String summarizes the plan's activity — handy in failure messages.
func (p *Plan) String() string {
	var names []string
	for name := range p.hits {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "faults.Plan(seed=%d)", p.seed)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d/%d", name, p.injected[name], p.hits[name])
	}
	return b.String()
}

// decide consults the plan for one hit of a point. It runs only from
// simulation context (one goroutine at a time by the sim hand-off
// discipline), so the plan's own state needs no lock.
func (p *Plan) decide(name string) *Decision {
	p.hits[name]++
	h := p.hits[name]
	if arg, ok := p.scripts[name][h]; ok {
		p.injected[name]++
		return &Decision{Point: name, Hit: h, Arg: arg, plan: p}
	}
	if prob := p.probs[name]; prob > 0 && p.rng.Float64() < prob {
		p.injected[name]++
		return &Decision{Point: name, Hit: h, plan: p}
	}
	return nil
}

// Decision is one fired injection: the site inspects it (and may draw from
// Rand) to shape the failure.
type Decision struct {
	Point string // the consulted point name
	Hit   int    // 1-based consultation count at which it fired
	Arg   uint64 // FailAtWith payload (0 for probabilistic firings)

	plan *Plan
}

// Rand returns the owning plan's deterministic random source.
func (d *Decision) Rand() *rand.Rand { return d.plan.rng }

// Error returns a descriptive error for sites that surface the injection
// directly.
func (d *Decision) Error() error {
	return fmt.Errorf("faults: injected %s (hit %d)", d.Point, d.Hit)
}

// Install attaches a plan to an environment, replacing any previous one.
func Install(env *sim.Env, p *Plan) { env.Faults = p }

// Uninstall detaches the environment's plan.
func Uninstall(env *sim.Env) { env.Faults = nil }

// Installed returns the environment's plan, or nil.
func Installed(env *sim.Env) *Plan {
	if env == nil {
		return nil
	}
	p, _ := env.Faults.(*Plan)
	return p
}

// Point consults the environment's plan for one hit of the named point.
// It returns nil — inject nothing — when env is nil, no plan is installed,
// or the plan decides against it. This is the only call production code
// makes into this package.
func Point(env *sim.Env, name string) *Decision {
	p := Installed(env)
	if p == nil {
		return nil
	}
	d := p.decide(name)
	if d != nil {
		// A fired injection is an observable event: the trace shows it inline
		// with the request it hit, and the metrics dump counts it per point.
		if tr := trace.Get(env); tr != nil {
			tr.Instant(env.CurrentProc().RID(), "faults", trace.LayerFaults, name, "")
			tr.Add("faults.injected."+name, 1)
		}
	}
	return d
}
