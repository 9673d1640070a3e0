package paradice_test

// The flight recorder's root-level contract: arming it perturbs nothing —
// the §6.1.1 no-op latency goldens hold bit for bit with the recorder on —
// and every digest it captures tiles: the per-hop durations sum exactly to
// the request's end-to-end latency, with the root group's duration agreeing
// with the digest's. This is the attribution analogue of
// TestNoopSpanReconciliation: every nanosecond of a request lands in exactly
// one hop bucket, nothing unaccounted.

import (
	"testing"

	"paradice"
	"paradice/internal/devfile"
	"paradice/internal/faults"
	"paradice/internal/kernel"
	"paradice/internal/load"
	"paradice/internal/mem"
	"paradice/internal/sim"
	"paradice/internal/trace"
	"paradice/internal/usrlib"
)

// armedNoop is tracedNoop with the flight recorder armed on the tracer
// before any request runs.
func armedNoop(t *testing.T, mode paradice.Mode, iters int) (*trace.Tracer, *trace.FlightRecorder) {
	t.Helper()
	m, gk := guestKernel(t, paradice.Config{Mode: mode}, paradice.PathGPU)
	tr := m.StartTrace()
	t.Cleanup(func() { m.StopTrace() })
	fr := tr.ArmFlightRecorder(trace.FlightConfig{})
	noopLoop(t, m, gk, iters)
	return tr, fr
}

// TestFlightArmedGoldenUnperturbed runs the §6.1.1 no-op with the flight
// recorder armed and demands the dormant-path latency goldens exactly:
// recording digests reads the virtual clock, it never advances it.
func TestFlightArmedGoldenUnperturbed(t *testing.T) {
	for _, c := range []struct {
		name string
		mode paradice.Mode
		want sim.Duration
	}{
		{"interrupts", paradice.Interrupts, noopGoldenInterrupts},
		{"polling", paradice.Polling, noopGoldenPolling},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, fr := armedNoop(t, c.mode, 4)
			root := lastIoctlRoot(t, tr)
			if root.Dur() != c.want {
				t.Fatalf("armed no-op latency %v != golden %v: arming the flight recorder perturbed the simulation\n%s",
					root.Dur(), c.want, dumpRID(tr, root.RID))
			}
			if fr.Total() == 0 {
				t.Fatal("flight recorder armed but captured no digests")
			}
		})
	}
}

// TestFlightDigestTilesEndToEnd checks, for every digest the armed no-op run
// captured, that the hop durations sum exactly to the digest's end-to-end
// latency — and that the last ioctl's digest agrees with its root trace
// group in both identity and duration.
func TestFlightDigestTilesEndToEnd(t *testing.T) {
	for _, mode := range []paradice.Mode{paradice.Interrupts, paradice.Polling} {
		tr, fr := armedNoop(t, mode, 4)
		root := lastIoctlRoot(t, tr)
		foundRoot := false
		for _, d := range fr.Digests() {
			var sum sim.Duration
			for h := trace.Hop(0); h < trace.HopCount; h++ {
				sum += d.Hops[h]
			}
			if sum != d.Latency() {
				t.Fatalf("mode %v rid %d: hops sum %v != end-to-end %v (digest %+v)",
					mode, d.RID, sum, d.Latency(), d)
			}
			if d.RID == root.RID {
				foundRoot = true
				if d.Latency() != root.Dur() {
					t.Fatalf("mode %v rid %d: digest latency %v != root group duration %v",
						mode, d.RID, d.Latency(), root.Dur())
				}
			}
		}
		if !foundRoot {
			t.Fatalf("mode %v: no digest for the last ioctl (rid %d)", mode, root.RID)
		}
	}
}

// digestOf returns the one digest named op, failing the test unless exactly
// one exists.
func digestOf(t *testing.T, fr *trace.FlightRecorder, op string) trace.Digest {
	t.Helper()
	var found []trace.Digest
	for _, d := range fr.Digests() {
		if d.Op == op {
			found = append(found, d)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d digests named %q, want 1: %+v", len(found), op, fr.Digests())
	}
	return found[0]
}

// A request's time in a device is its device hop: a guest write to the load
// sink, with nothing queued ahead of it, spends exactly the sink's service
// time there, and its hops still add up to its latency.
func TestFlightDigestSinkDeviceHop(t *testing.T) {
	const size = 8 << 10
	m, g := sinkMachine(t, paradice.Config{})
	t.Cleanup(m.Close)
	fr := m.StartTrace().ArmFlightRecorder(trace.FlightConfig{})
	runErr := sinkWriter(g, size, 0)
	m.Run()
	if *runErr != nil {
		t.Fatal(*runErr)
	}
	node, ok := m.Shards()[0].K.LookupDevice(load.SinkPath)
	if !ok {
		t.Fatal("no load sink in the driver VM")
	}
	d := digestOf(t, fr, "write "+load.SinkPath)
	if want := node.Ops.(*load.Sink).ServiceTime(size); d.Hops[trace.HopDevice] != want {
		t.Fatalf("device hop %v, want the sink's %v service time (digest %+v)", d.Hops[trace.HopDevice], want, d)
	}
	var sum sim.Duration
	for _, h := range d.Hops {
		sum += h
	}
	if sum != d.Latency() {
		t.Fatalf("hops sum %v != end-to-end %v (digest %+v)", sum, d.Latency(), d)
	}
}

// A request served by a local driver is recorded with what its caller got,
// exactly like a forwarded one: on a native machine, a QoS-2 task's
// nonblocking read of an empty mouse queue returns EAGAIN, and its digest
// carries class 2 and errno EAGAIN and is captured as an outlier.
func TestFlightDigestNativeErrno(t *testing.T) {
	m, err := paradice.NewNative(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	fr := m.StartTrace().ArmFlightRecorder(trace.FlightConfig{})
	p, err := m.AppKernel().NewProcess("reader")
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunTask("read", func(tk *kernel.Task) error {
		tk.QoS = 2
		fd, err := tk.Open(paradice.PathMouse, devfile.ORdOnly|devfile.ONonblock)
		if err != nil {
			return err
		}
		buf, err := p.Alloc(64)
		if err != nil {
			return err
		}
		if _, err := tk.Read(fd, buf, 64); !kernel.IsErrno(err, kernel.EAGAIN) {
			t.Errorf("read of an empty queue = %v, want EAGAIN", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := digestOf(t, fr, "read "+paradice.PathMouse)
	if d.Class != 2 || d.Errno != int32(kernel.EAGAIN) || !d.Outlier {
		t.Fatalf("native EAGAIN read digest = class %d errno %d outlier %t, want class 2 errno %d outlier",
			d.Class, d.Errno, d.Outlier, kernel.EAGAIN)
	}
}

// A forwarded request that fails in the frontend before anything crosses
// the boundary is recorded with its errno: a guest write whose grant
// declaration fails returns ENOMEM, and its digest says so and is captured
// as an outlier.
func TestFlightDigestDeclareFailure(t *testing.T) {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	sink := load.NewSink(m.Env, 2*sim.Microsecond, sim.Microsecond)
	if err := m.OnDriverVMBoot(func(k *kernel.Kernel) error {
		k.RegisterDevice(load.SinkPath, sink, sink)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g, err := m.AddGuest("guest1", paradice.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Paravirtualize(load.SinkPath); err != nil {
		t.Fatal(err)
	}
	fr := m.StartTrace().ArmFlightRecorder(trace.FlightConfig{})
	faults.Install(m.Env, faults.New(1).FailAt("grant.declare", 1))
	p, err := g.K.NewProcess("writer")
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunTask("write", func(tk *kernel.Task) error {
		fd, err := tk.Open(load.SinkPath, devfile.OWrOnly)
		if err != nil {
			return err
		}
		src, err := p.AllocBytes([]byte("payload"))
		if err != nil {
			return err
		}
		if _, err := tk.Write(fd, src, 7); !kernel.IsErrno(err, kernel.ENOMEM) {
			t.Errorf("write with a failed grant declaration = %v, want ENOMEM", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := digestOf(t, fr, "write "+load.SinkPath)
	if d.Errno != int32(kernel.ENOMEM) || !d.Outlier {
		t.Fatalf("declare-failure write digest = errno %d outlier %t, want errno %d outlier",
			d.Errno, d.Outlier, kernel.ENOMEM)
	}
	captured := false
	for _, o := range fr.Outliers() {
		captured = captured || o.Digest.RID == d.RID
	}
	if !captured {
		t.Fatalf("declare-failure write (rid %d) not among the captured outliers", d.RID)
	}
}

// A page fault a guest takes on a mapped GPU buffer is forwarded as a
// request of its own: after the guest writes through a fresh mapping, the
// frontend's forwarded-op count equals the digest count, and the fault's
// digest is named for the device file it faulted on.
func TestFlightDigestForwardedFault(t *testing.T) {
	m, gk := guestKernel(t, paradice.Config{}, paradice.PathGPU)
	tr := m.StartTrace()
	t.Cleanup(func() { m.StopTrace() })
	fr := tr.ArmFlightRecorder(trace.FlightConfig{})
	p, err := gk.NewProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunTask("touch", func(tk *kernel.Task) error {
		g, err := usrlib.OpenGPU(tk, paradice.PathGPU)
		if err != nil {
			return err
		}
		bo, err := g.CreateBO(mem.PageSize)
		if err != nil {
			return err
		}
		va, err := g.MapBO(bo, mem.PageSize)
		if err != nil {
			return err
		}
		return g.WriteF32(va, []float32{1.5})
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := tr.Metrics().Counter("cvd." + paradice.PathGPU + "@guest1.ops")
	if ops == 0 || fr.Total() != ops {
		t.Fatalf("%d forwarded ops but %d digests: a forwarded op belongs to no request", ops, fr.Total())
	}
	if d := digestOf(t, fr, "fault "+paradice.PathGPU); d.VM != "guest1" || d.Errno != 0 {
		t.Fatalf("fault digest = vm %q errno %d, want guest1 errno 0", d.VM, d.Errno)
	}
}
