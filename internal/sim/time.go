// Package sim provides a deterministic discrete-event simulation kernel.
//
// Everything in the Paradice reproduction that has a temporal dimension —
// inter-VM interrupts, device DMA completion, GPU command execution, polling
// loops — runs on this kernel. There is no wall clock anywhere: simulated
// time advances only when a process sleeps or an event fires, so identical
// inputs always produce identical timings.
//
// The kernel follows the classic process-interaction style (as in SimPy):
// processes are coroutines (iter.Pull) that run one at a time, and yield by
// sleeping, waiting on events, or acquiring resources. A process that blocks
// runs the scheduler itself and resumes the next process due directly, so a
// hop from one process to another is usually one coroutine switch; a process
// that is itself next due just keeps running.
package sim

import "fmt"

// Time is an absolute simulated time in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

func (t Time) String() string { return Duration(t).String() }
