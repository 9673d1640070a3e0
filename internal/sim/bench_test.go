package sim

import "testing"

// BenchmarkProcHop measures one ping-pong round between two processes: each
// triggers the other's event and waits on its own, so a round is two hops
// from one process to the next. pong is spawned first, so it is parked on
// ping before the first round.
func BenchmarkProcHop(b *testing.B) {
	e := NewEnv()
	defer e.Close()
	ping, pong := e.NewEvent(), e.NewEvent()
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

// BenchmarkSpawn measures spawning a process and running it to the end: a
// fresh coroutine, its start and its exit. Every 1024 processes the Env is
// closed and replaced, off the clock, so the finished processes it holds
// until Close stay few.
func BenchmarkSpawn(b *testing.B) {
	const batch = 1024
	body := func(*Proc) {}
	e := NewEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%batch == batch-1 {
			b.StopTimer()
			e.Close()
			e = NewEnv()
			b.StartTimer()
		}
		e.Spawn("op", body)
		e.Run()
	}
	e.Close()
}

// BenchmarkProcRing measures one hop of a token passed around a ring of 32
// processes while 128 sleepers wait far in the future, about the calendar
// size of the multi-guest workload: every wake-up is due at the instant it
// is scheduled, beside a full calendar.
func BenchmarkProcRing(b *testing.B) {
	const ring, sleepers = 32, 128
	e := NewEnv()
	defer e.Close()
	for i := 0; i < sleepers; i++ {
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second + Duration(i)) })
	}
	token := make([]*Event, ring)
	for i := range token {
		token[i] = e.NewEvent()
	}
	hops := 0
	for i := 0; i < ring; i++ {
		e.Spawn("ring", func(p *Proc) {
			for {
				p.Wait(token[i])
				token[i].Reset()
				if hops == b.N {
					b.StopTimer()
					return
				}
				hops++
				token[(i+1)%ring].Trigger()
			}
		})
	}
	e.Spawn("start", func(p *Proc) {
		b.ResetTimer()
		token[0].Trigger()
	})
	e.Run()
}

// BenchmarkSpinWake measures one spin wake-up shaped like the serve-mixed
// workload's polling waits: a token passes around 64 processes that each
// WaitTimeout 200µs for it and pass it on 1µs after it comes, beside 128
// sleepers far in the future. Every wait is woken long before its deadline,
// so each op files a deadline that the event then supersedes.
func BenchmarkSpinWake(b *testing.B) {
	const spinners, sleepers = 64, 128
	e := NewEnv()
	defer e.Close()
	for i := 0; i < sleepers; i++ {
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second + Duration(i)) })
	}
	token := make([]*Event, spinners)
	for i := range token {
		token[i] = e.NewEvent()
	}
	wakes := 0
	for i := 0; i < spinners; i++ {
		e.Spawn("spinner", func(p *Proc) {
			for {
				fired := p.WaitTimeout(token[i], 200*Microsecond)
				if wakes == b.N {
					b.StopTimer()
					return
				}
				if !fired {
					continue
				}
				token[i].Reset()
				wakes++
				p.Sleep(Microsecond)
				token[(i+1)%spinners].Trigger()
			}
		})
	}
	e.Spawn("start", func(p *Proc) {
		b.ResetTimer()
		token[0].Trigger()
	})
	e.Run()
}
