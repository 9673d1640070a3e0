package paradice

import "paradice/internal/kernel"

// This file implements the concurrency policies of §5.1: "For GPU for
// graphics, we adopt a foreground-background model. That is, only the
// foreground guest VM renders to the GPU, while others pause. ... For input
// devices, we only send notifications to the foreground guest VM." GPGPU
// access stays fully concurrent (Figure 6) and is unaffected.

// SetForeground makes g the foreground guest: its input notifications flow,
// every other guest's are dropped at the CVD backend, and tasks parked in
// WaitForeground on g resume. Passing nil backgrounds everyone.
func (m *Machine) SetForeground(g *Guest) {
	m.foreground = g
	for _, other := range m.guests {
		if other.fgEvent != nil && other.Foreground() {
			other.fgEvent.Trigger()
			other.fgEvent = nil
		}
	}
}

// Foreground reports whether this guest currently holds the virtual
// terminal.
func (g *Guest) Foreground() bool { return g.M.foreground == g }

// WaitForeground blocks the task until the guest is the foreground one —
// the pause a backgrounded game's render loop sits in.
func (g *Guest) WaitForeground(t *kernel.Task) {
	for !g.Foreground() {
		if g.fgEvent == nil {
			g.fgEvent = g.M.Env.NewEvent()
		}
		t.Sim().Wait(g.fgEvent)
	}
}

// isGatedInputPath reports whether the device at path is an input device
// whose notifications §5.1 gates to the foreground guest. The mouse and the
// keyboard both are; audit note: the camera and audio devices are NOT gated
// (the paper shares them by assigning each to one guest at a time, not by
// foreground notification filtering), and the GPU's foreground policy works
// through WaitForeground render-loop pausing, not notification gating — so
// neither needs rewiring after a driver VM restart.
func isGatedInputPath(path string) bool {
	return path == PathMouse || path == PathKeyboard
}
