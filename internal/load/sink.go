package load

import (
	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// SinkPath is the conventional device path for the load sink.
const SinkPath = "/dev/loadsink"

// Cmd returns the sink's ioctl command for a payload of the given size
// (_IOW: the payload is copied in, nothing comes back).
func Cmd(size int) devfile.IoctlCmd { return devfile.IOW('L', 0x01, uint32(size)) }

// Sink is the load sink device: a driver whose file operations consume the
// request payload and then occupy a single serial service unit for a
// size-dependent service time. The serial unit is the deliberate bottleneck
// — it gives the device a well-defined capacity (1/serviceTime), so offered
// load beyond it backs requests up into the CVD ring, which is exactly the
// regime admission control and the tail-latency experiment probe. (The CVD
// backend itself dispatches concurrently, so without a serial stage the
// ring would never fill.)
type Sink struct {
	kernel.BaseOps

	// Ops counts completed operations; Busiest tracks the high-water mark
	// of the service queue (waiters behind the unit).
	Ops     uint64
	Busiest int

	res   *sim.Resource
	base  sim.Duration
	perKB sim.Duration

	// scratch receives every payload. Its bytes are never read, so the
	// operations in flight at once may share it; it grows to the largest
	// payload seen.
	scratch []byte
}

// NewSink creates a sink whose service time for an n-byte payload is
// base + perKB*n/1024, served by one unit in FIFO order.
func NewSink(env *sim.Env, base, perKB sim.Duration) *Sink {
	return &Sink{res: env.NewResource("loadsink", 1), base: base, perKB: perKB}
}

// ServiceTime returns the configured service time for an n-byte payload.
func (s *Sink) ServiceTime(n int) sim.Duration {
	return s.base + s.perKB*sim.Duration(n)/1024
}

// Ioctl implements the sink operation: copy the payload in, then hold the
// serial unit for the service time.
func (s *Sink) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	_, err := s.Write(c, arg, int(cmd.Size()))
	return 0, err
}

// Write is the sink's bulk-data entry: same consume-and-serve semantics as
// the ioctl, but reached through the file write path, so on a CVD channel
// with the map cache enabled a large-enough payload rides the bulk-grant
// fast path (reqFlagMapHint) instead of the per-request assisted copy. The
// handover experiment uses it as the map-cache witness traffic.
func (s *Sink) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	if n > 0 {
		if err := kernel.CopyFromUser(c, src, s.payload(n)); err != nil {
			return 0, err
		}
	}
	s.serve(c, n)
	return n, nil
}

// payload returns an n-byte buffer to copy a payload into and discard.
func (s *Sink) payload(n int) []byte {
	if n > len(s.scratch) {
		s.scratch = make([]byte, n)
	}
	return s.scratch[:n]
}

// serve holds the serial service unit for an n-byte payload's service time.
func (s *Sink) serve(c *kernel.FopCtx, n int) {
	if q := s.res.QueueLen(); q > s.Busiest {
		s.Busiest = q
	}
	s.res.Acquire(c.Task.Sim())
	perf.Spend(c.Task.Proc.K.Env, "device", trace.LayerDevice, "sink", s.ServiceTime(n))
	s.res.Release()
	s.Ops++
}
