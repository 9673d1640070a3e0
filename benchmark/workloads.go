package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/driver/drm"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// workload is one seeded input set of the benchmark. README.md says why
// each was chosen.
type workload struct {
	name string
	// reps is how many reps a run makes when neither -reps nor -seconds
	// is given.
	reps int
	run  func(r *rep) error
}

var workloads = []*workload{
	{name: "noop-rtt", reps: 5, run: runNoop},
	{name: "stream-rw", reps: 5, run: runStream},
	{name: "serve-mixed", reps: 3, run: runServe},
	{name: "multi-guest", reps: 3, run: runMultiGuest},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale sizes the workloads; the tests run them tiny.
type scale struct {
	noopWarm, noopOps, infoOps int
	streamOps                  int
	lightWindow                sim.Duration
	heavyWindow                sim.Duration
	probeWindow                sim.Duration
	guests                     int
	guestWindow                sim.Duration

	// vendor is the DRM Info word noop-rtt expects, crc how the guest
	// computes the CRC a write should log.
	vendor uint32
	crc    func([]byte) uint32
}

var fullScale = scale{
	noopWarm: 100, noopOps: 20000, infoOps: 100,
	streamOps:   8000,
	lightWindow: 60 * sim.Millisecond, heavyWindow: 200 * sim.Millisecond, probeWindow: 30 * sim.Millisecond,
	guests: 32, guestWindow: 150 * sim.Millisecond,
	vendor: drm.VendorATI, crc: crc32.ChecksumIEEE,
}

// subSeed derives an independent random stream from the run seed.
func subSeed(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return int64(h.Sum64() >> 1)
}

// isErrno reports whether err is an honest kernel errno, which counts as a
// failed operation; any other error ends the run.
func isErrno(err error) bool {
	var e kernel.Errno
	return errors.As(err, &e)
}

// newMachine builds a machine and registers the device dev makes at path
// in its driver VM.
func (r *rep) newMachine(cfg paradice.Config, path string, dev func(*sim.Env) kernel.FileOps) (*paradice.Machine, error) {
	var m *paradice.Machine
	err := r.timed(phaseBuild, func() (err error) {
		if m, err = paradice.New(cfg); err != nil {
			return err
		}
		d := dev(m.Env)
		m.DriverK.RegisterDevice(path, d, d)
		return nil
	})
	return m, err
}

// addGuest adds a guest with the given device files paravirtualized.
func (r *rep) addGuest(m *paradice.Machine, name string, paths ...string) (*paradice.Guest, error) {
	var g *paradice.Guest
	err := r.timed(phaseGuest, func() (err error) {
		if g, err = m.AddGuest(name, kernel.Linux); err != nil {
			return err
		}
		return g.Paravirtualize(paths...)
	})
	return g, err
}

// closedLoop starts one task in a fresh guest process and returns a
// function that, after the machine has run, reports the task's error or
// that it never finished.
func (r *rep) closedLoop(g *paradice.Guest, setup func(p *kernel.Process) (func(t *kernel.Task) error, error)) (func() error, error) {
	var loopErr error
	done := false
	err := r.timed(phaseLoad, func() error {
		p, err := g.NewProcess("bench")
		if err != nil {
			return err
		}
		body, err := setup(p)
		if err != nil {
			return err
		}
		p.SpawnTask("loop", func(t *kernel.Task) {
			loopErr = body(t)
			done = true
		})
		return nil
	})
	return func() error {
		if loopErr != nil {
			return loopErr
		}
		if !done {
			return errors.New("closed loop did not finish")
		}
		return nil
	}, err
}

// latencies is a closed loop's record of its measured operations.
type latencies struct {
	lat     []sim.Duration
	bytes   int64
	elapsed sim.Duration
}

func (l *latencies) add(d sim.Duration, bytes int) {
	l.lat = append(l.lat, d)
	l.bytes += int64(bytes)
	l.elapsed += d
}

// report sets the end-to-end virtual-time metrics of a closed loop with no
// think time, so elapsed time is the sum of latencies.
func (l *latencies) report(r *rep, label string) {
	sorted := append([]sim.Duration(nil), l.lat...)
	sortDurations(sorted)
	r.v["lat_p50_us"] = nearestRank(sorted, 0.50).Microseconds()
	r.v["lat_p99_us"] = nearestRank(sorted, 0.99).Microseconds()
	r.v["goodput_kops"] = float64(len(l.lat)) / l.elapsed.Seconds() / 1e3
	r.v["payload_MBps"] = mbps(l.bytes, l.elapsed)
	r.v["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	r.notes = append(r.notes, quantileNote(label, sorted))
}

func mbps(bytes int64, d sim.Duration) float64 { return float64(bytes) / d.Seconds() / 1e6 }

// Echo argument sizes of noop-rtt: drawn per operation, log-uniformly, so
// each seed gives another latency distribution down to its tail, and kept
// within one page.
const noopMinArg, noopMaxArg = 32, 4096

// runNoop is the closed-loop no-op round trip: after warm-up, seeded-size
// echo ioctls, each checked byte for byte, then the DRM Info ioctl witness,
// whose vendor word is checked on every call.
func runNoop(r *rep) error {
	sc := r.sc
	rng := rand.New(rand.NewSource(subSeed(r.seed, "noop", 0)))
	sizes := make([]int, sc.noopWarm+sc.noopOps)
	for i := range sizes {
		sizes[i] = logUniform(rng, noopMinArg, noopMaxArg)
	}
	payload := make([]byte, noopMaxArg)
	rng.Read(payload)

	m, err := r.newMachine(paradice.Config{}, echoPath, func(*sim.Env) kernel.FileOps { return newEchoDev(nil) })
	if err != nil {
		return err
	}
	defer dispose(m)
	g, err := r.addGuest(m, "guest1", echoPath, paradice.PathGPU)
	if err != nil {
		return err
	}
	var meas, info latencies
	wait, err := r.closedLoop(g, func(p *kernel.Process) (func(t *kernel.Task) error, error) {
		arg, err := p.AllocBytes(payload)
		if err != nil {
			return nil, err
		}
		infoArg, err := p.Alloc(32)
		if err != nil {
			return nil, err
		}
		return func(t *kernel.Task) error {
			fd, err := t.Open(echoPath, devfile.ORdWr)
			if err != nil {
				return err
			}
			held := append([]byte(nil), payload...) // what arg holds
			got := make([]byte, noopMaxArg)
			for i, n := range sizes {
				r.attempted++
				start := t.Sim().Now()
				if _, err := t.Ioctl(fd, echoCmd(n), arg); err != nil {
					if !isErrno(err) {
						return err
					}
					r.failed++
					continue
				}
				d := t.Sim().Now().Sub(start)
				r.ops++
				if err := r.check(func() error {
					for j := range held[:n] {
						held[j] = ^held[j]
					}
					if err := p.Mem.Read(arg, got[:n]); err != nil {
						return err
					}
					return checkBytes(fmt.Sprintf("echo op %d", i), got[:n], held[:n])
				}); err != nil {
					return err
				}
				if i >= sc.noopWarm {
					meas.add(d, 2*n)
				}
			}
			gpu, err := t.Open(paradice.PathGPU, devfile.ORdWr)
			if err != nil {
				return err
			}
			for i := 0; i < sc.infoOps; i++ {
				r.attempted++
				start := t.Sim().Now()
				if _, err := t.Ioctl(gpu, drm.IoctlInfo, infoArg); err != nil {
					return err
				}
				info.add(t.Sim().Now().Sub(start), 32)
				r.ops++
				if err := r.check(func() error {
					v, err := p.Mem.ReadU32(infoArg)
					if err == nil && v != sc.vendor {
						err = fmt.Errorf("info op %d: vendor %#x, want %#x", i, v, sc.vendor)
					}
					return err
				}); err != nil {
					return err
				}
			}
			if err := t.Close(gpu); err != nil {
				return err
			}
			return t.Close(fd)
		}, nil
	})
	if err != nil {
		return err
	}
	r.drive(m, true)
	if err := wait(); err != nil {
		return err
	}
	r.primary.ops = r.ops
	meas.report(r, "echo")
	sortDurations(info.lat)
	r.notes = append(r.notes, quantileNote("drm-info witness", info.lat))
	return nil
}

// logUniform draws a size in [lo, hi) whose logarithm is uniform.
func logUniform(rng *rand.Rand, lo, hi int) int {
	return int(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64()))
}

// stream-rw moves data through 16 guest buffers of 256 KiB (a 4 MiB
// working set) with sizes log-uniform over 4-256 KiB.
const (
	streamBufs    = 16
	streamBufSize = 256 << 10
	streamMinSize = 4 << 10
)

// runStream is the closed-loop data path: seeded reads and writes, every
// write CRC-checked at the device and every read compared to the pattern.
func runStream(r *rep) error {
	sc := r.sc
	rng := rand.New(rand.NewSource(subSeed(r.seed, "stream", 0)))
	type op struct {
		write  bool
		buf, n int
	}
	ops := make([]op, sc.streamOps)
	for i := range ops {
		ops[i] = op{
			write: rng.Intn(2) == 0,
			buf:   rng.Intn(streamBufs),
			n:     logUniform(rng, streamMinSize, streamBufSize),
		}
	}
	held := make([][]byte, streamBufs) // what each guest buffer holds
	for i := range held {
		held[i] = make([]byte, streamBufSize)
		rng.Read(held[i])
	}
	pattern := make([]byte, 1<<20)
	rng.Read(pattern)

	echo := newEchoDev(pattern)
	m, err := r.newMachine(paradice.Config{}, echoPath, func(*sim.Env) kernel.FileOps { return echo })
	if err != nil {
		return err
	}
	defer dispose(m)
	g, err := r.addGuest(m, "guest1", echoPath)
	if err != nil {
		return err
	}
	var all, wr, rd latencies
	var wantCRCs []uint32
	reused := 0
	wait, err := r.closedLoop(g, func(p *kernel.Process) (func(t *kernel.Task) error, error) {
		va := make([]mem.GuestVirt, streamBufs)
		for i := range va {
			var err error
			if va[i], err = p.AllocBytes(held[i]); err != nil {
				return nil, err
			}
		}
		return func(t *kernel.Task) error {
			fd, err := t.Open(echoPath, devfile.ORdWr)
			if err != nil {
				return err
			}
			used := make([]bool, streamBufs)
			want := make([]byte, streamBufSize)
			got := make([]byte, streamBufSize)
			rpos := 0
			for i, o := range ops {
				r.attempted++
				start := t.Sim().Now()
				var n int
				if o.write {
					n, err = t.Write(fd, va[o.buf], o.n)
				} else {
					n, err = t.Read(fd, va[o.buf], o.n)
				}
				if err != nil {
					if !isErrno(err) {
						return err
					}
					r.failed++
					continue
				}
				d := t.Sim().Now().Sub(start)
				if n != o.n {
					return fmt.Errorf("op %d moved %d bytes, want %d", i, n, o.n)
				}
				r.ops++
				if err := r.check(func() error {
					if o.write {
						wantCRCs = append(wantCRCs, sc.crc(held[o.buf][:n]))
						return nil
					}
					rpos = cycle(want[:n], pattern, rpos)
					if err := p.Mem.Read(va[o.buf], got[:n]); err != nil {
						return err
					}
					copy(held[o.buf], want[:n])
					return checkBytes(fmt.Sprintf("read op %d", i), got[:n], want[:n])
				}); err != nil {
					return err
				}
				all.add(d, n)
				if o.write {
					wr.add(d, n)
				} else {
					rd.add(d, n)
				}
				if used[o.buf] {
					reused++
				}
				used[o.buf] = true
			}
			return t.Close(fd)
		}, nil
	})
	if err != nil {
		return err
	}
	r.drive(m, true)
	if err := wait(); err != nil {
		return err
	}
	if err := checkCRCs(echo.crcs, wantCRCs); err != nil {
		return err
	}
	r.primary.ops = r.ops
	all.report(r, "read+write")
	r.v["write_MBps"] = mbps(wr.bytes, wr.elapsed)
	r.v["read_MBps"] = mbps(rd.bytes, rd.elapsed)
	r.v["stream.reuse_share"] = float64(reused) / float64(len(ops))
	return nil
}

// The serve-mixed and multi-guest device: a load.Sink serving 2 µs + 1 µs/KB.
const (
	sinkBase  = 2 * sim.Microsecond
	sinkPerKB = 1 * sim.Microsecond
	rtSLO     = 200 * sim.Microsecond
)

// serve-mixed runs two fixed levels, then bisects for capacity at 5k/s
// resolution. The heavy level is 180k/s (64% of the sink's ~281 kops/s for
// this mix), not higher: at 85% load its p99 moved by half across seeds.
const (
	serveLight, serveHeavy = 120_000, 180_000
	capLo, capHi, capStep  = 60_000, 320_000, 5_000
	// serveClients stays below the bulk admission limit of 80 ring slots,
	// so the clients' opening storm cannot shed requests.
	serveClients = 64
	// The heavy level's rt and bulk classes are each split into this many
	// groups, load classes with the same QoS and size, which keeps every
	// group's histogram under the exact-quantile cap over a long window. Its
	// quantiles are medians over the groups.
	serveGroups = 4
)

// serveMix returns the 1:3 rt:bulk mix, each class split into groups.
// Classes [0, groups) are rt, [groups, 2*groups) bulk.
func serveMix(groups int) []load.Class {
	var out []load.Class
	for _, c := range []load.Class{
		{Name: "rt", QoS: 0, Size: 256, Weight: 1, SLO: rtSLO},
		{Name: "bulk", QoS: 2, Size: 2048, Weight: 3},
	} {
		for i := 0; i < groups; i++ {
			out = append(out, c)
		}
	}
	return out
}

// level is one open-loop rate on its own machine.
type level struct {
	rate, groups int
	res          *load.Result
	makespan     sim.Duration
	sink         *load.Sink
}

// class returns the groups of class 0 (rt) or 1 (bulk).
func (l *level) class(c int) []load.ClassStats {
	return l.res.Classes[c*l.groups : (c+1)*l.groups]
}

// quantile returns the median over groups of one class's exact q-quantile.
func (l *level) quantile(c int, q float64) (sim.Duration, error) {
	var ds []sim.Duration
	for i := range l.class(c) {
		d, err := quantile(&l.class(c)[i].Lat, q)
		if err != nil {
			return 0, fmt.Errorf("%d/s: %w", l.rate, err)
		}
		ds = append(ds, d)
	}
	sortDurations(ds)
	if n := len(ds); n%2 == 0 {
		return (ds[n/2-1] + ds[n/2]) / 2, nil
	}
	return ds[len(ds)/2], nil
}

// sums adds up one class's shed requests and latency samples.
func (l *level) sums(c int) (shed, samples uint64) {
	for _, g := range l.class(c) {
		shed += g.Throttled + g.Rejected
		samples += g.Lat.Count
	}
	return shed, samples
}

// note prints a class's quantiles, which runServe has already read without
// error.
func (l *level) note(label string, c int) string {
	_, n := l.sums(c)
	p50, _ := l.quantile(c, 0.50)
	p99, _ := l.quantile(c, 0.99)
	return fmt.Sprintf("%s@%dk groups=%d n=%d p50=%.3fus p99=%.3fus", label, l.rate/1000, l.groups, n,
		p50.Microseconds(), p99.Microseconds())
}

// sustains reports whether the level met the rt SLO at p99 and completed at
// least 97% of its offered requests.
func (l *level) sustains() (bool, error) {
	p99, err := l.quantile(0, 0.99)
	if err != nil {
		return false, err
	}
	return p99 <= rtSLO && float64(l.res.OK()) >= 0.97*float64(l.res.Offered), nil
}

// checkDrained fails unless every client finished and none hit a non-errno
// failure.
func checkDrained(gen *load.Generator) error {
	if !gen.Done() {
		return errors.New("load clients did not drain")
	}
	if v := gen.Result().Violations; len(v) > 0 {
		return fmt.Errorf("%d violations, first: %s", len(v), v[0])
	}
	return nil
}

// sinkDev returns a device constructor for a load.Sink, kept in *sink.
func sinkDev(sink **load.Sink) func(*sim.Env) kernel.FileOps {
	return func(env *sim.Env) kernel.FileOps {
		*sink = load.NewSink(env, sinkBase, sinkPerKB)
		return *sink
	}
}

// startLoad builds an open-loop generator and starts its clients in g.
func (r *rep) startLoad(g *paradice.Guest, p load.Profile) (*load.Generator, error) {
	var gen *load.Generator
	err := r.timed(phaseLoad, func() (err error) {
		if gen, err = load.NewGenerator(p); err != nil {
			return err
		}
		return gen.Start(g.K)
	})
	return gen, err
}

// serveLevel runs one serve-mixed rate on a fresh machine.
func (r *rep) serveLevel(rate, groups int, window sim.Duration, primary bool) (*level, error) {
	var sink *load.Sink
	m, err := r.newMachine(paradice.Config{
		Mode:      paradice.Adaptive,
		GuestRAM:  256 << 20,
		Admission: map[uint8]int{2: 80},
	}, load.SinkPath, sinkDev(&sink))
	if err != nil {
		return nil, err
	}
	defer dispose(m)
	g, err := r.addGuest(m, "guest1", load.SinkPath)
	if err != nil {
		return nil, err
	}
	gen, err := r.startLoad(g, load.Profile{
		Path: load.SinkPath, Classes: serveMix(groups), Arrival: load.Poisson,
		Rate: float64(rate), Clients: serveClients, Duration: window,
		Seed: subSeed(r.seed, "serve", rate),
	})
	if err != nil {
		return nil, err
	}
	r.drive(m, primary)
	if err := checkDrained(gen); err != nil {
		return nil, fmt.Errorf("%d/s: %w", rate, err)
	}
	res := gen.Result()
	r.ops += int(res.OK())
	if primary {
		r.primary.ops = int(res.OK())
	}
	return &level{rate: rate, groups: groups, res: res, makespan: sim.Duration(m.Env.Now()), sink: sink}, nil
}

// failures counts a load result's shed and errno outcomes.
func failures(res *load.Result) uint64 {
	n := res.Dropped()
	for i := range res.Classes {
		n += res.Classes[i].Errors
	}
	return n
}

// sinkStats reports how busy the sink was over the makespan and its longest
// queue.
func (r *rep) sinkStats(sink *load.Sink, makespan sim.Duration, results ...*load.Result) {
	var busy sim.Duration
	for _, res := range results {
		for i := range res.Classes {
			c := &res.Classes[i]
			busy += sim.Duration(c.OK) * sink.ServiceTime(c.Class.Size)
		}
	}
	r.v["device.sink.busy_frac"] = float64(busy) / float64(makespan)
	r.v["device.sink.max_queue"] = float64(sink.Busiest)
}

// runServe is the open-loop rt/bulk mix: the light and heavy levels, then
// the capacity bisection. The end-to-end latencies are the heavy level's rt
// class.
func runServe(r *rep) error {
	sc := r.sc
	light, err := r.serveLevel(serveLight, 1, sc.lightWindow, false)
	if err != nil {
		return err
	}
	heavy, err := r.serveLevel(serveHeavy, serveGroups, sc.heavyWindow, true)
	if err != nil {
		return err
	}
	for _, l := range []*level{light, heavy} {
		r.attempted += int(l.res.Offered)
		r.failed += int(failures(l.res))
	}
	for _, q := range []struct {
		name     string
		lv       *level
		class    int
		quantile float64
	}{
		{"lat_p50_us", heavy, 0, 0.50},
		{"lat_p99_us", heavy, 0, 0.99},
		{"bulk_p99_us", heavy, 1, 0.99},
		{"lat_p99_light_us", light, 0, 0.99},
	} {
		d, err := q.lv.quantile(q.class, q.quantile)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		r.v[q.name] = d.Microseconds()
	}
	var bytes int64
	for _, c := range heavy.res.Classes {
		bytes += int64(c.OK) * int64(c.Class.Size)
	}
	rtShed, rtN := heavy.sums(0)
	bulkShed, bulkN := heavy.sums(1)
	r.v["goodput_kops"] = float64(heavy.res.OK()) / heavy.makespan.Seconds() / 1e3
	r.v["payload_MBps"] = mbps(bytes, heavy.makespan)
	r.v["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	r.v["load.shed.rt"] = float64(rtShed)
	r.v["load.shed.bulk"] = float64(bulkShed)
	r.v["load.samples.rt"] = float64(rtN)
	r.v["load.samples.bulk"] = float64(bulkN)
	r.sinkStats(heavy.sink, heavy.makespan, heavy.res)
	r.notes = append(r.notes, light.note("rt", 0), heavy.note("rt", 0), heavy.note("bulk", 1))

	// The bisection keeps lo sustained and hi not, starting from the
	// search bounds and the two levels already run.
	lo, hi := capLo, capHi
	for _, l := range []*level{light, heavy} {
		ok, err := l.sustains()
		if err != nil {
			return err
		}
		if ok && l.rate > lo {
			lo = l.rate
		}
		if !ok && l.rate < hi {
			hi = l.rate
		}
	}
	for hi-lo > capStep {
		mid := (lo + hi) / 2 / capStep * capStep
		if mid <= lo {
			mid = lo + capStep
		}
		probe, err := r.serveLevel(mid, 1, sc.probeWindow, false)
		if err != nil {
			return err
		}
		ok, err := probe.sustains()
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	r.v["capacity_kops"] = float64(lo) / 1e3
	return nil
}

// multi-guest offers each guest 11k/s of 256-byte requests from 4 clients;
// 32 guests load the shared sink (about 444 kops/s) to about 79%.
const guestRate, guestClients = 11_000, 4

// runMultiGuest is the open-loop many-guest workload on one machine.
func runMultiGuest(r *rep) error {
	sc := r.sc
	var sink *load.Sink
	m, err := r.newMachine(paradice.Config{
		Mode:     paradice.Adaptive,
		Workers:  4,
		GuestRAM: 32 << 20,
		// The guests, the driver VM and headroom.
		HostRAM: uint64(sc.guests+4) * (32 << 20),
	}, load.SinkPath, sinkDev(&sink))
	if err != nil {
		return err
	}
	defer dispose(m)
	gens := make([]*load.Generator, sc.guests)
	for i := range gens {
		g, err := r.addGuest(m, fmt.Sprintf("guest%d", i+1), load.SinkPath)
		if err != nil {
			return err
		}
		gens[i], err = r.startLoad(g, load.Profile{
			Path:    load.SinkPath,
			Classes: []load.Class{{Name: "rt", QoS: 0, Size: 256, Weight: 1, SLO: rtSLO}},
			Arrival: load.Poisson, Rate: guestRate, Clients: guestClients,
			Duration: sc.guestWindow, Seed: subSeed(r.seed, "guest", i),
		})
		if err != nil {
			return err
		}
	}
	r.drive(m, true)
	makespan := sim.Duration(m.Env.Now())

	var p50s, p99s []sim.Duration
	var ok, shed, samples uint64
	results := make([]*load.Result, len(gens))
	for i, gen := range gens {
		if err := checkDrained(gen); err != nil {
			return fmt.Errorf("guest%d: %w", i+1, err)
		}
		res := gen.Result()
		results[i] = res
		c := &res.Classes[0]
		p50, err := quantile(&c.Lat, 0.50)
		if err != nil {
			return fmt.Errorf("guest%d: %w", i+1, err)
		}
		p99, err := quantile(&c.Lat, 0.99)
		if err != nil {
			return fmt.Errorf("guest%d: %w", i+1, err)
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		r.attempted += int(res.Offered)
		r.failed += int(failures(res))
		ok += res.OK()
		shed += res.Dropped()
		samples += c.Lat.Count
	}
	sortDurations(p50s)
	sortDurations(p99s)
	worst := p99s[len(p99s)-1]
	r.ops, r.primary.ops = int(ok), int(ok)
	r.v["lat_p50_us"] = nearestRank(p50s, 0.50).Microseconds()
	r.v["lat_p99_us"] = nearestRank(p99s, 0.50).Microseconds()
	r.v["goodput_kops"] = float64(ok) / makespan.Seconds() / 1e3
	r.v["payload_MBps"] = mbps(int64(ok)*256, makespan)
	r.v["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	r.v["guest.p99_spread"] = float64(worst) / float64(p99s[0])
	r.v["load.shed.rt"] = float64(shed)
	r.v["load.samples.rt"] = float64(samples)
	r.sinkStats(sink, makespan, results...)
	r.notes = append(r.notes, fmt.Sprintf("%d guests, %d samples: per-guest p50 median %.3fus; per-guest p99 best %.3fus median %.3fus worst %.3fus",
		len(gens), samples, r.v["lat_p50_us"], p99s[0].Microseconds(), r.v["lat_p99_us"], worst.Microseconds()))
	return nil
}

func sortDurations(d []sim.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile reads an exact quantile from a load histogram and refuses one the
// histogram can only bound, past trace.HistSampleCap samples.
func quantile(h *trace.Hist, q float64) (sim.Duration, error) {
	if h.Count == 0 {
		return 0, errors.New("no latency samples")
	}
	if !h.Exact() {
		return 0, fmt.Errorf("%d samples exceed the exact-quantile cap of %d", h.Count, trace.HistSampleCap)
	}
	return h.Quantile(q), nil
}

// nearestRank returns the q-quantile of ascending samples: the sample of
// rank ceil(q*n).
func nearestRank(sorted []sim.Duration, q float64) sim.Duration {
	return sorted[rank(q, len(sorted))-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantileNote prints a latency distribution's percentiles with their
// sample count. p999 is shown only when at least ten samples lie beyond it.
func quantileNote(label string, sorted []sim.Duration) string {
	n := len(sorted)
	s := fmt.Sprintf("%s n=%d p50=%.3fus p99=%.3fus", label, n,
		nearestRank(sorted, 0.50).Microseconds(), nearestRank(sorted, 0.99).Microseconds())
	if n-rank(0.999, n) >= 10 {
		s += fmt.Sprintf(" p999=%.3fus", nearestRank(sorted, 0.999).Microseconds())
	}
	return s
}
