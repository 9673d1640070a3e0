package cvd

import (
	"bufio"
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// pathCounters reads the channel's per-path counters out of the metrics
// dump, leaving out .ops, which counts every forwarded attempt.
func pathCounters(t *testing.T, tr *trace.Tracer) map[string]uint64 {
	t.Helper()
	const prefix = "counter cvd./dev/testdev@guest."
	var b bytes.Buffer
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		name, v, _ := strings.Cut(rest, " ")
		if name == "ops" {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = n
	}
	return out
}

// Each failure exit of a round trip moves exactly one per-path counter, by
// exactly one (admission also moves its class's eagain counter), so no
// counter restates another.
func TestFailureExitsMoveOneCounter(t *testing.T) {
	for _, c := range []struct {
		name  string
		mode  Mode
		errno kernel.Errno
		want  []string
		// arm sets the exit up once the file is open, on the probing task.
		arm func(r *rig, app *kernel.Process, tk *kernel.Task, fd int)
	}{
		{"degraded", Interrupts, kernel.ENODEV, []string{"errno.ENODEV"},
			func(r *rig, _ *kernel.Process, _ *kernel.Task, _ int) { r.fe.SetDegraded(true) }},
		{"dead backend", Interrupts, kernel.EREMOTE, []string{"errno.EREMOTE"},
			func(r *rig, _ *kernel.Process, _ *kernel.Task, _ int) { r.be.Stop() }},
		{"admission", Interrupts, kernel.EAGAIN, []string{"eagain.class2", "throttled"},
			func(r *rig, _ *kernel.Process, tk *kernel.Task, _ int) {
				r.fe.SetAdmission(map[uint8]int{2: 0})
				tk.QoS = 2
			}},
		{"ring full", Interrupts, kernel.EBUSY, []string{"rejected"},
			func(r *rig, app *kernel.Process, tk *kernel.Task, fd int) {
				// Blocking reads (nothing is written) hold every slot.
				for i := 0; i < slotCount; i++ {
					app.SpawnTask("holder", func(tk *kernel.Task) {
						dst, _ := app.Alloc(8)
						tk.Read(fd, dst, 8)
					})
				}
				tk.Sim().Sleep(5 * sim.Millisecond)
			}},
		{"deadline", Interrupts, kernel.ETIMEDOUT, []string{"timedout"},
			func(r *rig, _ *kernel.Process, _ *kernel.Task, _ int) { r.fe.SetDeadline(sim.Millisecond) }},
		// Polled, a deadline longer than the spin window ends in a sleep for
		// the remainder; a shorter one ends with the spin.
		{"deadline polled", Polling, kernel.ETIMEDOUT, []string{"timedout"},
			func(r *rig, _ *kernel.Process, _ *kernel.Task, _ int) { r.fe.SetDeadline(sim.Millisecond) }},
		{"deadline within spin", Polling, kernel.ETIMEDOUT, []string{"timedout"},
			func(r *rig, _ *kernel.Process, _ *kernel.Task, _ int) { r.fe.SetDeadline(50 * sim.Microsecond) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, c.mode, kernel.Linux)
			tr := trace.New()
			trace.Install(r.env, tr)
			app, err := r.guestK.NewProcess("app")
			if err != nil {
				t.Fatal(err)
			}
			var before, after map[string]uint64
			var callErr error
			var took sim.Duration
			app.SpawnTask("probe", func(tk *kernel.Task) {
				fd, err := tk.Open("/dev/testdev", devfile.ORdOnly)
				if err != nil {
					t.Error(err)
					return
				}
				dst, _ := app.Alloc(8)
				c.arm(r, app, tk, fd)
				before = pathCounters(t, tr)
				start := tk.Sim().Now()
				_, callErr = tk.Read(fd, dst, 8)
				took = tk.Sim().Now().Sub(start)
				after = pathCounters(t, tr)
			})
			r.env.RunUntil(sim.Time(50 * sim.Millisecond))
			if !kernel.IsErrno(callErr, c.errno) {
				t.Fatalf("read = %v, want %v", callErr, c.errno)
			}
			var moved []string
			for name, v := range after {
				if v == before[name] {
					continue
				}
				moved = append(moved, name)
				if v != before[name]+1 {
					t.Errorf("%s moved %d -> %d, want +1", name, before[name], v)
				}
			}
			slices.Sort(moved)
			if !slices.Equal(moved, c.want) {
				t.Errorf("per-path counters moved %v, want %v", moved, c.want)
			}
			// The ring-full exit also keeps the frontend's Rejected stat,
			// which paradice-inspect prints.
			if c.errno == kernel.EBUSY && r.fe.Rejected != 1 {
				t.Errorf("Rejected = %d, want 1", r.fe.Rejected)
			}
			if c.errno == kernel.ETIMEDOUT && took < r.fe.deadline {
				t.Errorf("timed out after %v, before the %v deadline", took, r.fe.deadline)
			}
		})
	}
}
