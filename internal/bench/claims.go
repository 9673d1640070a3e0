package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"paradice/internal/device/camera"
)

// The paper's conclusions as checked data. Each claim is one qualitative
// statement of the evaluation (who wins, where a crossover falls, what stays
// equal), checked on the rows its experiment already computed. A claim reads
// only labels that the quick and the full sweep both emit, so the one list
// holds at both fidelities: TestAllExperimentsRegistered checks it on the
// quick rows, and cmd/bench-regress on the full rows of every new run.

// claim is one conclusion about experiment exp's rows.
type claim struct {
	exp     string // experiment ID
	section string // the paper section it restates; "ours" marks an addition
	text    string
	check   func(r *rowSet) error
}

// rowSet looks an experiment's rows up by label. A lookup of a row the
// experiment did not emit yields NaN and records the first such row, which
// the claim then reports in place of its own verdict.
type rowSet struct {
	all     []Row
	missing string
}

// v returns the value of the (series, x) row.
func (r *rowSet) v(series, x string) float64 {
	for _, row := range r.all {
		if row.Series == series && row.X == x {
			return row.Value
		}
	}
	r.miss(series + "/" + x)
	return math.NaN()
}

// x returns the label of series' first row: for a single-row series whose
// label depends on the fidelity.
func (r *rowSet) x(series string) string {
	if xs := r.labels(series); len(xs) > 0 {
		return xs[0]
	}
	return ""
}

// labels returns the labels of every row of series.
func (r *rowSet) labels(series string) []string {
	var xs []string
	for _, row := range r.all {
		if row.Series == series {
			xs = append(xs, row.X)
		}
	}
	if len(xs) == 0 {
		r.miss(series)
	}
	return xs
}

func (r *rowSet) miss(what string) {
	if r.missing == "" {
		r.missing = what
	}
}

// The labels the claims on Figures 3 and 4 read: the OpenGL benchmarks, and
// the games at the two resolutions both sweeps run.
var (
	fig3Benchmarks = []string{"VBO", "VA", "DL"}
	fig4Games      = []string{"Tremulous", "OpenArena", "Nexuiz"}
	fig4Res        = []string{"800x600", "1680x1050"}
)

// camLabel is a camera row's resolution label.
func camLabel(res camera.Resolution) string { return fmt.Sprintf("%dx%d", res.W, res.H) }

// CheckClaims checks every claim about experiment id on its rows and returns
// the failures joined, each naming its section and statement.
func CheckClaims(id string, got []Row) error {
	var errs []error
	for _, c := range claims {
		if c.exp != id {
			continue
		}
		if err := c.eval(got); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (c claim) eval(got []Row) error {
	r := &rowSet{all: got}
	err := c.check(r)
	if r.missing != "" {
		err = fmt.Errorf("no row %s", r.missing)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %s: %w", c.exp, c.section, c.text, err)
	}
	return nil
}

var claims = []claim{
	{"noop", "§6.1.1", "a no-op file operation takes ~35 µs with interrupts and ~2 µs with polling", func(r *rowSet) error {
		const x = "no-op fileop"
		intLat, pollLat := r.v(pParadice.name, x), r.v(pPolling.name, x)
		switch {
		case len(r.all) != 2:
			return fmt.Errorf("%d rows, want one per transport", len(r.all))
		case intLat < 30 || intLat > 40:
			return fmt.Errorf("interrupt no-op latency %.1f µs, paper ~35 µs", intLat)
		case pollLat > 4:
			return fmt.Errorf("polled no-op latency %.1f µs, paper ~2 µs", pollLat)
		}
		return nil
	}},

	{"fig2", "§6.1.2", "polling reaches near-native rate at batch 4", func(r *rowSet) error {
		native, poll := r.v(pNative.name, "batch=4"), r.v(pPolling.name, "batch=4")
		if poll < 0.75*native {
			return fmt.Errorf("Paradice(P) %.3f Mpps below 75%% of native %.3f", poll, native)
		}
		return nil
	}},
	{"fig2", "§6.1.2", "at batch 4, Native ≥ Paradice(P) > Paradice", func(r *rowSet) error {
		native, poll, intr := r.v(pNative.name, "batch=4"), r.v(pPolling.name, "batch=4"), r.v(pParadice.name, "batch=4")
		if !(native >= poll && poll > intr) {
			return fmt.Errorf("rate ordering violated: native=%.3f polled=%.3f interrupts=%.3f", native, poll, intr)
		}
		return nil
	}},
	{"fig2", "§6.1.2", "with interrupts, batch 4 stays far from native", func(r *rowSet) error {
		native, intr := r.v(pNative.name, "batch=4"), r.v(pParadice.name, "batch=4")
		if intr > 0.5*native {
			return fmt.Errorf("Paradice batch=4 %.3f Mpps unexpectedly near native %.3f", intr, native)
		}
		return nil
	}},
	{"fig2", "§6.1.2", "interrupts converge to native at batch 256", func(r *rowSet) error {
		native, intr := r.v(pNative.name, "batch=256"), r.v(pParadice.name, "batch=256")
		if intr < 0.9*native {
			return fmt.Errorf("Paradice batch=256 %.3f Mpps has not converged to native %.3f", intr, native)
		}
		return nil
	}},
	{"fig2", "§6.1.2", "a FreeBSD guest performs like a Linux guest", func(r *rowSet) error {
		for _, batch := range []string{"batch=1", "batch=64"} {
			l, f := r.v(pParadice.name, batch), r.v(pFreeBSD.name, batch)
			if f < 0.9*l || f > 1.1*l {
				return fmt.Errorf("FreeBSD guest %s %.3f Mpps differs from Linux %.3f", batch, f, l)
			}
		}
		return nil
	}},

	{"fig3", "§6.1.1", "device assignment is indistinguishable from native", func(r *rowSet) error {
		for _, bm := range fig3Benchmarks {
			native, da := r.v(pNative.name, bm), r.v(pAssign.name, bm)
			if da < 0.97*native {
				return fmt.Errorf("%s: device assignment %.1f FPS below native %.1f", bm, da, native)
			}
		}
		return nil
	}},
	{"fig3", "§6.1.3", "with interrupts, Paradice drops visibly below native on cheap frames", func(r *rowSet) error {
		for _, bm := range fig3Benchmarks {
			native, intr := r.v(pNative.name, bm), r.v(pParadice.name, bm)
			if intr > 0.95*native {
				return fmt.Errorf("%s: Paradice %.1f FPS unexpectedly at native %.1f", bm, intr, native)
			}
		}
		return nil
	}},
	{"fig3", "§6.1.3", "polling closes the gap to native", func(r *rowSet) error {
		for _, bm := range fig3Benchmarks {
			native, poll := r.v(pNative.name, bm), r.v(pPolling.name, bm)
			if poll < 0.93*native {
				return fmt.Errorf("%s: Paradice(P) %.1f FPS below 93%% of native %.1f", bm, poll, native)
			}
		}
		return nil
	}},
	{"fig3", "§6.1.3", "FPS orders Native > Paradice(P) > Paradice", func(r *rowSet) error {
		for _, bm := range fig3Benchmarks {
			native, poll, intr := r.v(pNative.name, bm), r.v(pPolling.name, bm), r.v(pParadice.name, bm)
			if !(native > poll && poll > intr) {
				return fmt.Errorf("%s: FPS ordering violated: native=%.1f polled=%.1f interrupts=%.1f", bm, native, poll, intr)
			}
		}
		return nil
	}},

	{"fig4", "§6.1.3", "in demanding games Paradice stays within 12% of native", func(r *rowSet) error {
		for _, game := range fig4Games {
			for _, res := range fig4Res {
				x := game + " " + res
				native, intr := r.v(pNative.name, x), r.v(pParadice.name, x)
				if intr < 0.88*native {
					return fmt.Errorf("%s: Paradice %.1f FPS more than 12%% below native %.1f", x, intr, native)
				}
			}
		}
		return nil
	}},
	{"fig4", "§6.1.3", "device data isolation has no noticeable impact", func(r *rowSet) error {
		for _, game := range fig4Games {
			for _, res := range fig4Res {
				x := game + " " + res
				intr, di := r.v(pParadice.name, x), r.v(pIsolated.name, x)
				if di < 0.98*intr {
					return fmt.Errorf("%s: Paradice(DI) %.1f FPS noticeably below Paradice %.1f", x, di, intr)
				}
			}
		}
		return nil
	}},
	{"fig4", "§6.1.3", "FPS falls with resolution", func(r *rowSet) error {
		for _, game := range fig4Games {
			lo, hi := r.v(pNative.name, game+" "+fig4Res[0]), r.v(pNative.name, game+" "+fig4Res[1])
			if hi >= lo {
				return fmt.Errorf("%s: FPS did not fall with resolution (%.1f -> %.1f)", game, lo, hi)
			}
		}
		return nil
	}},

	{"fig5", "§6.1.4", "every configuration multiplies in near-identical time", func(r *rowSet) error {
		for _, order := range []string{"order=1", "order=100"} {
			native, p, di := r.v(pNative.name, order), r.v(pParadice.name, order), r.v(pIsolated.name, order)
			if p > 1.05*native || di > 1.05*native {
				return fmt.Errorf("%s: Paradice %.3f s / Paradice(DI) %.3f s vs native %.3f s, not identical", order, p, di, native)
			}
		}
		return nil
	}},
	{"fig5", "§6.1.4", "time grows with the matrix order", func(r *rowSet) error {
		if r.v(pNative.name, "order=100") <= r.v(pNative.name, "order=1") {
			return errors.New("matmul time did not grow with order")
		}
		return nil
	}},

	{"mouse", "§6.1.5", "latency orders Native < Device-Assign. < Paradice(P) < Paradice", func(r *rowSet) error {
		native, da := r.v(pNative.name, "latency"), r.v(pAssign.name, "latency")
		poll, intr := r.v(pPolling.name, "latency"), r.v(pParadice.name, "latency")
		if !(native < da && da < poll && poll < intr) {
			return fmt.Errorf("latency ordering violated: %.1f %.1f %.1f %.1f µs", native, da, poll, intr)
		}
		return nil
	}},
	{"mouse", "§6.1.5", "Paradice latency stays below the 1 ms input threshold", func(r *rowSet) error {
		if intr := r.v(pParadice.name, "latency"); intr >= 1000 {
			return fmt.Errorf("Paradice latency %.1f µs", intr)
		}
		return nil
	}},

	{"camera", "§6.1.6", "every configuration captures ~29.5 FPS at every resolution", func(r *rowSet) error {
		for _, p := range mediaPlatforms {
			for _, res := range camera.Resolutions {
				if fps := r.v(p.name, camLabel(res)); fps < 29 || fps > 30 {
					return fmt.Errorf("%s %s: %.2f FPS, paper ~29.5", p.name, camLabel(res), fps)
				}
			}
		}
		return nil
	}},
	{"audio", "§6.1.6", "playback takes the same time on every configuration", func(r *rowSet) error {
		clip := r.x(pNative.name) // "N s clip": N depends on the fidelity
		base := r.v(pNative.name, clip)
		for _, p := range mediaPlatforms {
			if v := r.v(p.name, clip); v < 0.98*base || v > 1.02*base {
				return fmt.Errorf("%s plays the %s in %.4f s, native in %.4f s", p.name, clip, v, base)
			}
		}
		return nil
	}},

	{"table1", "Table 1", "five device classes are paravirtualized", func(r *rowSet) error {
		if len(r.all) != 5 {
			return fmt.Errorf("%d device classes, want 5", len(r.all))
		}
		return nil
	}},
	{"table2", "Table 2", "the breakdown counts a real source tree", func(r *rowSet) error {
		var total float64
		for _, row := range r.all {
			total += row.Value
		}
		if total < 5000 {
			return fmt.Errorf("measured %.0f LoC across components", total)
		}
		return nil
	}},
	{"table3", "Table 3", "Paradice, the last of five approaches, has all four properties", func(r *rowSet) error {
		x := r.x("Paradice")
		if n := len(r.all); n != 5 || r.all[n-1].Series != "Paradice" {
			return fmt.Errorf("%d approaches, Paradice not last", n)
		}
		if strings.Contains(x, "no") {
			return fmt.Errorf("Paradice row %q", x)
		}
		return nil
	}},
	{"analyzer", "§4.1", "the CS ioctl's nested copies need JIT slice execution", func(r *rowSet) error {
		if x := r.x("DRM_CS"); !strings.Contains(x, "JIT") {
			return fmt.Errorf("DRM_CS classified %q", x)
		}
		return nil
	}},
	{"analyzer", "§4.1", "the vsync wait is served from static entries", func(r *rowSet) error {
		if x := r.x("DRM_WAIT_VSYNC"); strings.Contains(x, "JIT") {
			return fmt.Errorf("DRM_WAIT_VSYNC classified %q", x)
		}
		return nil
	}},

	{"ablation", "§5.1", "the 200 µs polling window cuts the no-op round trip by more than 3x", func(r *rowSet) error {
		intr, paper := r.v("no-op RT", "window=0 (interrupts)"), r.v("no-op RT", "window=200.000µs")
		if paper >= intr/3 {
			return fmt.Errorf("200 µs window %.1f µs vs interrupts %.1f µs", paper, intr)
		}
		return nil
	}},
	{"ablation", "§5.1", "the 200 µs window does at least as well as 10 µs on every workload", func(r *rowSet) error {
		for _, series := range []string{"no-op RT", "netmap batch=4", "mouse latency"} {
			paper, small := r.v(series, "window=200.000µs"), r.v(series, "window=10.000µs")
			worse := paper > small // a latency: lower is better
			if series == "netmap batch=4" {
				worse = paper < small // a rate: higher is better
			}
			if worse {
				return fmt.Errorf("%s: 200 µs window %.3f worse than 10 µs %.3f", series, paper, small)
			}
		}
		return nil
	}},

	{"adaptive", "§5.1, ours", "adaptive tracks the better static mode within 10% at both ends of the load sweep, with no spin at low load", func(r *rowSet) error {
		hi, lo := r.v("envelope", "high-vs-best-static"), r.v("envelope", "low-vs-interrupts")
		spin := r.v("excess-spin", "low-load")
		switch {
		case hi > 1.10:
			return fmt.Errorf("p50 at the top rate is %.3fx the best static mode", hi)
		case lo > 1.10:
			return fmt.Errorf("p50 at the bottom rate is %.3fx interrupts", lo)
		case spin != 0:
			return fmt.Errorf("%.3f µs/op of spin at the bottom rate, where interrupts burn none", spin)
		}
		return nil
	}},
	{"adaptive", "§5.1, ours", "batching sends fewer doorbells than plain interrupts at the top rate", func(r *rowSet) error {
		const top = "load=240k/s"
		plain, batched := r.v("doorbells interrupts", top), r.v("doorbells interrupts+batch", top)
		if batched >= plain {
			return fmt.Errorf("%.0f doorbells batched vs %.0f unbatched", batched, plain)
		}
		return nil
	}},

	{"bulk", "§5.2, ours", "a single-use mapping loses to the assisted copy and a well-reused one wins", func(r *rowSet) error {
		copy16 := r.v("assisted copy @16K", "R=1")
		once, reused := r.v("map cache @16K", "R=1"), r.v("map cache @16K", "R=16")
		if once <= copy16 {
			return fmt.Errorf("single-use mapping %.1f µs beat the assisted copy %.1f µs", once, copy16)
		}
		if reused >= copy16 {
			return fmt.Errorf("R=16 mapping %.1f µs did not beat the assisted copy %.1f µs", reused, copy16)
		}
		return nil
	}},
	{"bulk", "§5.2, ours", "at high reuse the mapping's win grows with size", func(r *rowSet) error {
		small := r.v("assisted copy", "4K") - r.v("map cache (R=16)", "4K")
		big := r.v("assisted copy", "64K") - r.v("map cache (R=16)", "64K")
		if big <= small || big <= 0 {
			return fmt.Errorf("win 4K %.2f µs, 64K %.2f µs", small, big)
		}
		return nil
	}},
	{"bulk", "§5.2, ours", "doorbell coalescing shares IRQs across an 8-post burst", func(r *rowSet) error {
		const s = "doorbell IRQs (8-post burst)"
		off, on := r.v(s, "window=0 (off)"), r.v(s, "window=40.000µs")
		if on >= off/2 {
			return fmt.Errorf("coalescing left %.0f of %.0f doorbell IRQs", on, off)
		}
		return nil
	}},

	{"walkcache", "§5.2, ours", "the translation cache makes warm small operations at least 15% faster", func(r *rowSet) error {
		for _, size := range WalkSizes {
			x := sizeLabel(size)
			cold, warm := r.v("per-request walks", x), r.v("translation cache", x)
			if warm > 0.85*cold {
				return fmt.Errorf("warm %s op %.3f µs not >= 15%% under cold %.3f µs", x, warm, cold)
			}
		}
		return nil
	}},
	{"walkcache", "§5.2, ours", "the steady-state TLB hit rate is at least 75%", func(r *rowSet) error {
		const s = "TLB hit rate (1K echo)"
		if rate := r.v(s, r.x(s)); rate < 75 {
			return fmt.Errorf("hit rate %.1f%%", rate)
		}
		return nil
	}},
	{"walkcache", "§5.2, ours", "batched grant hypercalls declare an 8-chunk scatter-gather in at most 2 crossings", func(r *rowSet) error {
		const s = "grant crossings (8-chunk CS)"
		perEntry, batched := r.v(s, "per-entry"), r.v(s, "batched")
		if perEntry < 8 {
			return fmt.Errorf("per-entry declare took %.0f crossings, expected >= 8", perEntry)
		}
		if batched > 2 {
			return fmt.Errorf("batched declare took %.0f crossings", batched)
		}
		return nil
	}},

	{"handover", "ours", "a planned driver-VM handover fails no request", func(r *rowSet) error {
		if n := r.v("failed", "handover"); n != 0 {
			return fmt.Errorf("%.0f requests failed", n)
		}
		return nil
	}},
	{"multivm", "§6.1.4, ours", "the adaptive transport keeps >= 0.85 scaling efficiency at 8 guests", func(r *rowSet) error {
		if eff := r.v("efficiency adaptive", "guests=8"); eff < 0.85 {
			return fmt.Errorf("efficiency %.3f", eff)
		}
		return nil
	}},
	{"tail", "ours", "every load level has a positive rt and bulk p99, and some swept rate is sustained", func(r *rowSet) error {
		levels := r.labels("goodput")
		for _, x := range levels {
			for _, s := range []string{"rt p99", "bulk p99"} {
				if v := r.v(s, x); v <= 0 {
					return fmt.Errorf("%s %s = %v", s, x, v)
				}
			}
		}
		if n := len(r.labels("rt p99")) + len(r.labels("bulk p99")); n != 2*len(levels) {
			return fmt.Errorf("%d p99 rows for %d load levels", n, len(levels))
		}
		if v := r.v("max-sustained", "goodput>=97%"); v <= 0 {
			return fmt.Errorf("max-sustained = %v", v)
		}
		return nil
	}},
}
