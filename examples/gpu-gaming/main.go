// gpu-gaming: two guest VMs share one GPU under the foreground-background
// model of §5.1 — the foreground guest renders its game while the
// background guest's render loop pauses, and mouse notifications reach only
// the foreground guest. Halfway through, the "user" switches virtual
// terminals and the roles swap.
package main

import (
	"fmt"
	"log"

	"paradice"
	"paradice/internal/device/input"
	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/usrlib"
	"paradice/internal/workload"
)

func main() {
	m, err := paradice.New(paradice.Config{})
	if err != nil {
		log.Fatal(err)
	}
	g1 := addGamer(m, "vt1")
	g2 := addGamer(m, "vt2")
	m.SetForeground(g1)

	frames := map[string]int{}
	sigios := map[string]int{}

	// Each guest runs a Tremulous-style render loop that pauses while
	// backgrounded, plus an input listener armed with fasync.
	spec := workload.GameTremulous.GL(workload.GameResolutions[0])
	for _, g := range []*paradice.Guest{g1, g2} {
		g := g
		startGame(m, g, spec, frames)
		startListener(g, sigios)
	}

	// The user wiggles the mouse throughout and hits the VT-switch key
	// combination at t=1s.
	for i := 0; i < 20; i++ {
		m.Mouse.InjectAt(sim.Time(i)*sim.Time(100*sim.Millisecond), input.EvRel, 0, 1)
	}
	m.Env.At(sim.Time(1*sim.Second), func() {
		fmt.Println("  [t=1s] VT switch: vt2 comes to the foreground")
		m.SetForeground(g2)
	})

	m.RunUntil(sim.Time(2 * sim.Second))

	fmt.Println("\ntwo guests sharing one GPU, foreground-background model:")
	for _, g := range []*paradice.Guest{g1, g2} {
		name := g.K.Name
		fmt.Printf("  %s: %3d frames rendered, %2d input notifications\n",
			name, frames[name], sigios[name])
	}
	d1, d2 := frames[g1.K.Name], frames[g2.K.Name]
	if d1 == 0 || d2 == 0 {
		log.Fatal("a guest never rendered; VT switching failed")
	}
	fmt.Println("\neach guest rendered only during its foreground interval, and")
	fmt.Println("input notifications followed the foreground guest (§5.1).")
}

func addGamer(m *paradice.Machine, name string) *paradice.Guest {
	g, err := m.AddGuest(name, paradice.Linux)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU, paradice.PathMouse); err != nil {
		log.Fatal(err)
	}
	return g
}

func startGame(m *paradice.Machine, g *paradice.Guest, spec workload.GLSpec, frames map[string]int) {
	p, err := g.NewProcess("game")
	if err != nil {
		log.Fatal(err)
	}
	p.SpawnTask("render", func(t *kernel.Task) {
		ctx, err := usrlib.OpenGPU(t, paradice.PathGPU)
		if err != nil {
			log.Fatal(err)
		}
		fb, err := ctx.CreateBO(1 << 20)
		if err != nil {
			log.Fatal(err)
		}
		for {
			g.WaitForeground(t) // pause while backgrounded
			t.Compute("cpu-prep", sim.Duration(spec.CPUPrep))
			if err := ctx.Draw(fb, 0, spec.DrawCycles); err != nil {
				log.Fatal(err)
			}
			frames[g.K.Name]++
		}
	})
}

func startListener(g *paradice.Guest, sigios map[string]int) {
	p, err := g.NewProcess("input-listener")
	if err != nil {
		log.Fatal(err)
	}
	p.OnSIGIO(func() { sigios[g.K.Name]++ })
	p.SpawnTask("arm", func(t *kernel.Task) {
		fd, err := t.Open(paradice.PathMouse, 0x800 /* nonblock */)
		if err != nil {
			log.Fatal(err)
		}
		if err := t.SetFasync(fd, true); err != nil {
			log.Fatal(err)
		}
	})
}
