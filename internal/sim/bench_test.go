package sim

import "testing"

// BenchmarkProcHop measures one ping-pong round between two processes: each
// triggers the other's event and waits on its own, so a round is two hops
// from one process to the next. pong is spawned first, so it is parked on
// ping before the first round.
func BenchmarkProcHop(b *testing.B) {
	e := NewEnv()
	defer e.Close()
	ping, pong := e.NewEvent("ping"), e.NewEvent("pong")
	e.Spawn("pong", func(p *Proc) {
		for {
			p.Wait(ping)
			ping.Reset()
			pong.Trigger()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Trigger()
			p.Wait(pong)
			pong.Reset()
		}
		b.StopTimer()
	})
	e.Run()
}

// BenchmarkSelfResume measures a process sleeping while nothing else is due,
// so the scheduler resumes it without switching to another process.
func BenchmarkSelfResume(b *testing.B) {
	e := NewEnv()
	defer e.Close()
	e.RunFunc("sleeper", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
		b.StopTimer()
	})
}
