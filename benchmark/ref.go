package main

import (
	"sort"
	"time"
)

// refSink keeps the reference job's results live.
var refSink int

// refNominal is the reference job's time on the 2-CPU container the bounds
// were set on. Host times are reported at reference speed: multiplied by
// refNominal over the run's median reference time.
const refNominal = 20 * time.Millisecond

// refJob times a fixed job that uses nothing from the repository but does
// what the simulator's host time goes to: hand-offs between two goroutines
// over unbuffered channels, small allocations, map stores, and a sort.
// Scaling by it cancels much of the drift in a shared machine's speed over
// minutes. The parent runs it before and after each rep.
func refJob() time.Duration {
	t0 := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	m := make(map[int][]byte)
	x := 0
	for i := 0; i < 20000; i++ {
		ping <- i
		x += <-pong
		m[i%4096] = make([]byte, 64+i%256)
	}
	close(ping)
	<-pong
	s := make([]int, 1<<16)
	for i := range s {
		s[i] = i * 7919 % 65521
	}
	sort.Ints(s)
	refSink = x + len(m) + s[100]
	return time.Since(t0)
}
