// Package load is the open-loop workload harness: it drives many concurrent
// guest processes against a paravirtualized device file with seeded arrival
// processes on the virtual clock, and reports per-QoS-class end-to-end
// latency histograms and drop counts.
//
// Open-loop means arrivals are scheduled independently of completions — the
// request stream a production frontend sees — and every latency is measured
// from the request's *scheduled* arrival time, not from when a busy client
// finally got around to issuing it. That convention makes queueing delay
// (including a client falling behind its own arrival stream) part of the
// measured latency instead of silently vanishing, the coordinated-omission
// mistake closed-loop harnesses make.
//
// Everything is deterministic: arrivals come from a seeded math/rand stream,
// time is the simulation's virtual clock, and the per-class histograms are
// trace.Hist (exact quantiles up to trace.HistSampleCap observations). Two
// runs with the same Profile produce byte-identical results.
package load

import (
	"errors"
	"fmt"
	"math/rand"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Arrival selects the arrival process.
type Arrival int

const (
	// Poisson arrivals: independent exponential interarrival gaps at the
	// profile's mean rate — the memoryless aggregate of many clients.
	Poisson Arrival = iota
	// Bursty arrivals: an on/off (interrupted Poisson) process. On- and
	// off-period lengths are exponential with means OnMean/OffMean, and
	// arrivals occur only during on periods, at the rate that preserves the
	// profile's long-run mean. Bursts are what expose queue buildup that a
	// smooth Poisson stream at the same mean rate hides.
	Bursty
)

func (a Arrival) String() string {
	if a == Bursty {
		return "bursty"
	}
	return "poisson"
}

// Class is one request class in the mix: a QoS tag (kernel.Task.QoS), a
// payload size, and a weight giving its share of arrivals.
type Class struct {
	Name   string
	QoS    uint8
	Size   int // ioctl payload bytes
	Weight int // share of arrivals (relative to the other classes)
	// SLO is the class's per-request latency objective (0 = none). The
	// witness classes feed it to the flight recorder as the outlier-capture
	// threshold.
	SLO sim.Duration
}

// Profile describes one open-loop run.
type Profile struct {
	// Path is the device file the clients issue requests against.
	Path string
	// Classes is the request mix; at least one, weights >= 1.
	Classes []Class
	// Arrival selects Poisson or Bursty arrivals.
	Arrival Arrival
	// Rate is the long-run mean arrival rate in requests per simulated
	// second, across all classes.
	Rate float64
	// OnMean/OffMean are the mean on/off period lengths for Bursty
	// arrivals; zero selects 2 ms each (a 50% duty cycle, so on-period
	// rate is 2x the mean).
	OnMean, OffMean sim.Duration
	// Clients is how many concurrent guest processes issue the requests;
	// arrivals are dealt round-robin, so each client carries Rate/Clients.
	Clients int
	// Duration is the arrival window: requests are scheduled in
	// [0, Duration). Clients drain their remaining requests after it.
	Duration sim.Duration
	// Seed seeds the arrival stream (gap lengths and class picks).
	Seed int64
}

// Thresholds returns the per-QoS-class latency objectives of the profile's
// classes — the map trace.FlightConfig.ClassThresholds takes. Classes
// without an SLO are absent (no latency-based outlier capture for them).
func (p Profile) Thresholds() map[uint8]sim.Duration {
	out := make(map[uint8]sim.Duration)
	for _, c := range p.Classes {
		if c.SLO > 0 {
			out[c.QoS] = c.SLO
		}
	}
	return out
}

// ClassStats is the per-class outcome of a run.
type ClassStats struct {
	Class  Class
	Issued uint64 // requests issued (scheduled arrivals that ran)
	OK     uint64 // completed successfully
	// Throttled counts EAGAIN refusals — QoS admission control shedding
	// the class at its ring-occupancy limit.
	Throttled uint64
	// Rejected counts EBUSY refusals — the ring itself was full.
	Rejected uint64
	// Errors counts any other errno.
	Errors uint64
	// Lat is the end-to-end latency histogram of OK requests, measured
	// from scheduled arrival to completion.
	Lat trace.Hist
}

// Result is the outcome of a run.
type Result struct {
	// Offered is the number of scheduled arrivals.
	Offered uint64
	// Classes holds per-class stats, in Profile.Classes order.
	Classes []ClassStats
	// CloseBusy counts device closes bounced with an honest errno — a
	// still-full ring, or a dead backend under fault injection. The release
	// cannot be retried once the fd is gone, so these are tallied, not
	// failed.
	CloseBusy uint64
	// Violations records non-errno failures (harness or kernel bugs —
	// a correct run has none).
	Violations []string
}

// OK returns the total successful completions across classes.
func (r *Result) OK() uint64 {
	var n uint64
	for i := range r.Classes {
		n += r.Classes[i].OK
	}
	return n
}

// Dropped returns the total shed requests (EAGAIN + EBUSY) across classes.
func (r *Result) Dropped() uint64 {
	var n uint64
	for i := range r.Classes {
		n += r.Classes[i].Throttled + r.Classes[i].Rejected
	}
	return n
}

type arrival struct {
	at    sim.Time
	class int
}

// Generator owns one open-loop run: the precomputed arrival schedule and
// the client tasks that execute it.
type Generator struct {
	prof     Profile
	arrivals []arrival
	res      Result
	running  int // client tasks not yet finished
}

// NewGenerator precomputes the arrival schedule for the profile. The
// schedule is a pure function of the profile (seed included), so the same
// profile always yields the same run.
func NewGenerator(p Profile) (*Generator, error) {
	if p.Path == "" {
		return nil, fmt.Errorf("load: profile needs a device path")
	}
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("load: profile needs at least one class")
	}
	if p.Rate <= 0 || p.Clients <= 0 || p.Duration <= 0 {
		return nil, fmt.Errorf("load: rate, clients, and duration must be positive")
	}
	total := 0
	for _, c := range p.Classes {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("load: class %q needs weight >= 1", c.Name)
		}
		if c.Size <= 0 {
			return nil, fmt.Errorf("load: class %q needs a payload size", c.Name)
		}
		total += c.Weight
	}
	if p.OnMean <= 0 {
		p.OnMean = 2 * sim.Millisecond
	}
	if p.OffMean <= 0 {
		p.OffMean = 2 * sim.Millisecond
	}
	g := &Generator{prof: p}
	g.res.Classes = make([]ClassStats, len(p.Classes))
	for i, c := range p.Classes {
		g.res.Classes[i].Class = c
	}
	g.genArrivals(total)
	return g, nil
}

// genArrivals fills the schedule from the seeded stream. Gap lengths are
// exponential; class picks are weighted draws from the same stream.
func (g *Generator) genArrivals(totalWeight int) {
	p := g.prof
	rng := rand.New(rand.NewSource(p.Seed))
	pick := func() int {
		r := rng.Intn(totalWeight)
		for i, c := range p.Classes {
			r -= c.Weight
			if r < 0 {
				return i
			}
		}
		return len(p.Classes) - 1
	}
	horizon := p.Duration.Seconds()
	emit := func(t float64) {
		g.arrivals = append(g.arrivals,
			arrival{at: sim.Time(t * 1e9), class: pick()})
	}
	switch p.Arrival {
	case Bursty:
		// Interrupted Poisson: the on-period rate is scaled up by the
		// inverse duty cycle so the long-run mean stays Rate.
		duty := p.OnMean.Seconds() / (p.OnMean.Seconds() + p.OffMean.Seconds())
		rateOn := p.Rate / duty
		t := 0.0
		on := true
		phaseEnd := rng.ExpFloat64() * p.OnMean.Seconds()
		for t < horizon {
			if !on {
				t = phaseEnd
				on = true
				phaseEnd = t + rng.ExpFloat64()*p.OnMean.Seconds()
				continue
			}
			gap := rng.ExpFloat64() / rateOn
			if t+gap > phaseEnd {
				t = phaseEnd
				on = false
				phaseEnd = t + rng.ExpFloat64()*p.OffMean.Seconds()
				continue
			}
			t += gap
			if t >= horizon {
				break
			}
			emit(t)
		}
	default: // Poisson
		t := 0.0
		for {
			t += rng.ExpFloat64() / p.Rate
			if t >= horizon {
				break
			}
			emit(t)
		}
	}
	g.res.Offered = uint64(len(g.arrivals))
}

// Offered returns the number of scheduled arrivals.
func (g *Generator) Offered() uint64 { return g.res.Offered }

// Start creates the client processes in the guest kernel and spawns one
// task per client executing its share of the schedule. The caller drives
// the simulation (Run / RunUntil); Result is valid once the clients have
// drained — Done reports that.
func (g *Generator) Start(k *kernel.Kernel) error {
	p := g.prof
	maxSize := 0
	for _, c := range p.Classes {
		if c.Size > maxSize {
			maxSize = c.Size
		}
	}
	// Deal the time-ordered schedule round-robin: client i gets arrivals
	// i, i+Clients, i+2*Clients, ... — each client's list stays ordered.
	for i := 0; i < p.Clients; i++ {
		proc, err := k.NewProcess(fmt.Sprintf("load%d", i))
		if err != nil {
			return fmt.Errorf("load: client %d: %w", i, err)
		}
		var mine []arrival
		for j := i; j < len(g.arrivals); j += p.Clients {
			mine = append(mine, g.arrivals[j])
		}
		g.running++
		proc.SpawnTask("client", func(t *kernel.Task) {
			defer func() { g.running-- }()
			g.client(t, proc, mine, maxSize)
		})
	}
	return nil
}

// client is one guest process's run: open the device, replay the assigned
// arrivals, classify every outcome.
func (g *Generator) client(t *kernel.Task, proc *kernel.Process, mine []arrival, maxSize int) {
	if len(mine) == 0 {
		return
	}
	// The open storm: every client opens the device at start, and on a CVD
	// path the opens themselves ride the 100-slot ring, so with more
	// clients than slots some opens bounce with EBUSY. Retry on a
	// deterministic backoff — the storm drains within a few ring
	// round-trip batches.
	fd := -1
	for attempt := 0; attempt < 10000; attempt++ {
		f, err := t.Open(g.prof.Path, devfile.ORdWr)
		if err == nil {
			fd = f
			break
		}
		if kernel.IsErrno(err, kernel.EBUSY) || kernel.IsErrno(err, kernel.EAGAIN) {
			t.Sim().Sleep(20 * sim.Microsecond)
			continue
		}
		if isErrno(err) {
			// An honest errno beyond backpressure — a dead backend or an
			// expired deadline under fault injection. The device is
			// legitimately unreachable: charge the whole schedule as errors
			// and bow out rather than calling it a harness violation.
			for _, a := range mine {
				g.res.Classes[a.class].Issued++
				g.res.Classes[a.class].Errors++
			}
			return
		}
		g.violation("open %s: %v", g.prof.Path, err)
		return
	}
	if fd < 0 {
		g.violation("open %s: EBUSY after 10000 attempts", g.prof.Path)
		return
	}
	buf, err := proc.Alloc(maxSize)
	if err != nil {
		g.violation("alloc: %v", err)
		return
	}
	if err := proc.Mem.Write(buf, make([]byte, maxSize)); err != nil {
		g.violation("fill: %v", err)
		return
	}
	for _, a := range mine {
		if now := t.Sim().Now(); a.at > now {
			t.Sim().Sleep(a.at.Sub(now))
		}
		// A late start (the client fell behind its own stream) issues
		// immediately; the lateness lands in the measured latency.
		st := &g.res.Classes[a.class]
		t.QoS = st.Class.QoS
		st.Issued++
		_, err := t.Ioctl(fd, Cmd(st.Class.Size), buf)
		switch {
		case err == nil:
			st.OK++
			st.Lat.Observe(t.Sim().Now().Sub(a.at))
		case kernel.IsErrno(err, kernel.EAGAIN):
			st.Throttled++
		case kernel.IsErrno(err, kernel.EBUSY):
			st.Rejected++
		default:
			if isErrno(err) {
				st.Errors++
			} else {
				g.violation("ioctl class %s: %v", st.Class.Name, err)
			}
		}
	}
	// Close rides the ring too. It cannot be retried (the fd is gone once
	// the syscall runs), so a close bounced with an honest errno — a
	// still-full ring, or a dead backend under fault injection — is counted
	// rather than treated as a harness violation.
	t.QoS = 0
	if err := t.Close(fd); err != nil {
		if isErrno(err) {
			g.res.CloseBusy++
		} else {
			g.violation("close: %v", err)
		}
	}
}

// isErrno reports whether an error is an honest kernel errno — the only
// failure a correct data path may show a guest task, and therefore the
// line between a workload outcome and a harness violation.
func isErrno(err error) bool {
	var e kernel.Errno
	return errors.As(err, &e)
}

func (g *Generator) violation(format string, args ...any) {
	g.res.Violations = append(g.res.Violations, fmt.Sprintf(format, args...))
}

// Done reports whether every client task has finished its schedule.
func (g *Generator) Done() bool { return g.running == 0 }

// Result returns the run's outcome. Call after the simulation has drained
// the clients (Done).
func (g *Generator) Result() *Result { return &g.res }
