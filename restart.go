package paradice

import (
	"errors"
	"fmt"
	"sort"

	"paradice/internal/cvd"
	"paradice/internal/faults"
	"paradice/internal/handover"
	"paradice/internal/perf"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Sentinel errors for driver-VM lifecycle failures (restart and handover).
// Callers match with errors.Is.
var (
	// ErrNoDriverVM: the machine is a baseline (native / device-assign) and
	// has no driver VM to restart or hand over.
	ErrNoDriverVM = errors.New("paradice: only a Paradice machine has a driver VM to restart")
	// ErrDataIsolationRestart: restart/handover with device data isolation
	// enabled is not supported (the hypervisor's protected-region state would
	// need migrating to the new driver VM's EPT).
	ErrDataIsolationRestart = errors.New("paradice: driver VM restart with data isolation is not supported")
	// ErrRestartInProgress: another restart or handover holds the machine's
	// lifecycle lock, or is replacing the driver-VM shard a device to be
	// paravirtualized would connect to. Retry once it has finished.
	ErrRestartInProgress = errors.New("paradice: driver VM restart already in progress")
	// ErrRestartFailed: the replacement driver VM failed to come up (includes
	// the injected "machine.restart.fail" fault). The machine is untouched.
	ErrRestartFailed = errors.New("paradice: driver VM restart failed")
)

// RestartDriverVM implements the recovery path §8 sketches for a device
// broken by a malicious guest ("detect the broken device and restart it by
// simply restarting the driver VM"): the old driver VM is abandoned, every
// device gets a function-level reset, a fresh driver VM boots with fresh
// drivers, and each guest's CVD frontends are reconnected to new backends.
// With Config.Supervise set the supervisor invokes this automatically;
// it remains callable as the manual operator action.
//
// Consequences for guests, as on the real system: operations in flight when
// the driver VM died fail with EREMOTE, and file descriptors opened before
// the restart are invalid — applications reopen the device and continue
// (internal/usrlib's WithReopen packages that retry loop). The reboot costs
// perf.CostDriverVMRestart of virtual time when called from simulation
// process context (the supervisor's watchdog), so recovery latency is a
// measured quantity; from host context (a test calling it directly) the
// clock does not move.
//
// The lifecycle lock guards against concurrent invocation: the reboot yields
// the simulated CPU while it "boots", and a second caller arriving in that
// window — a second supervisor, a test, an over-eager operator — gets a
// clean error instead of a half-torn-down machine.
func (m *Machine) RestartDriverVM() error { return m.replaceShards(0, len(m.shards), false) }

// RestartDriverShard restarts one driver-VM shard, leaving the other shards
// — and every guest channel they serve — undisturbed. On a single-shard
// machine RestartDriverShard(0) is RestartDriverVM. Each shard's supervisor
// heals through this, so a crash in shard 2's backends costs only shard 2's
// devices their availability window.
func (m *Machine) RestartDriverShard(i int) error { return m.replaceShards(i, i+1, false) }

// HandoverDriverVM performs a planned, zero-loss driver-VM handover — the
// production alternative to RestartDriverVM for maintenance events (driver
// upgrades, driver-VM kernel updates) where the predecessor is still healthy
// and nothing forces the crash-style path. internal/handover stages it: the
// successor boots side-by-side and pays perf.CostDriverVMRestart while the
// predecessor keeps serving (this is where the downtime win comes from); the
// frontends drain, parking new posts instead of failing them EREMOTE; then
// every channel binds to the successor, its open files and grant-map cache
// carried over. On any stage failure the handover aborts back to the
// still-live predecessor; Handovers records the episode either way.
//
// Fault points: "machine.handover.fail" (the attempt is refused outright),
// "handover.warm.fail" (a channel's pre-warm fails during switch), and
// "handover.drain.timeout" (the quiesce stage gives up immediately).
//
// Like RestartDriverVM, virtual time advances only when called from
// simulation process context (RequestHandover runs it on the supervisor's
// watchdog proc).
func (m *Machine) HandoverDriverVM() error { return m.replaceShards(0, len(m.shards), true) }

// HandoverDriverShard performs a planned handover of one driver-VM shard,
// leaving the other shards serving throughout — rolling maintenance across
// a sharded machine is N of these, one shard at a time. On a single-shard
// machine HandoverDriverShard(0) is HandoverDriverVM.
func (m *Machine) HandoverDriverShard(i int) error { return m.replaceShards(i, i+1, true) }

// replaceShards replaces the driver VMs of shards [lo, hi) in order: a crash
// restart (cold) or a planned handover (warm). A cold restart consults
// "machine.restart.fail" once per call: the injected form of a replacement
// that fails to boot (bad image, exhausted host memory, ...), after which the
// supervisor counts the attempt against its backoff budget and tries again.
//
// Both ways bind every channel to a successor backend through the same cvd
// prepare and bind steps; they differ in when the successor boots (inside
// the outage, or before the drain), in what happens to operations in flight
// (failed with EREMOTE, or drained), and in whether state carries over.
// Restarts never enter handover.Run: they record no episode.
func (m *Machine) replaceShards(lo, hi int, warm bool) error {
	if m.Kind != KindParadice {
		return ErrNoDriverVM
	}
	if m.cfg.DataIsolation {
		return ErrDataIsolationRestart
	}
	if m.replacing != nil {
		return fmt.Errorf("%w (epoch %d)", ErrRestartInProgress, m.restartEpoch)
	}
	if lo < 0 || hi > len(m.shards) {
		return fmt.Errorf("paradice: shard %d out of range (machine has %d)", lo, len(m.shards))
	}
	if !warm {
		if d := faults.Point(m.Env, "machine.restart.fail"); d != nil {
			return fmt.Errorf("%w: %v", ErrRestartFailed, d.Error())
		}
	}
	defer func() { m.replacing = nil }()
	for i := lo; i < hi; i++ {
		sh := m.shards[i]
		// The channel list is taken once, here: a channel connected to this
		// shard before it is replaced would stay on the retired driver VM,
		// so Paravirtualize refuses the shard's devices until then.
		m.replacing = sh
		chs := m.shardChannels(i)
		preds := make([]*cvd.Backend, len(chs))
		fes := make([]*cvd.Frontend, len(chs))
		for j, c := range chs {
			fes[j] = c.g.Frontends[c.path]
			preds[j] = fes[j].Backend()
		}
		pred := *sh
		// retire stops the predecessor's backend dispatchers, then its
		// handler set. Channel order, not the map: each Stop drops that
		// backend's map cache, charging CostMapPage per cached page in this
		// proc's context, so the instant each later backend's stopped flag
		// latches — and therefore which racing in-flight operations
		// fast-fail — depends on the order.
		retire := func() {
			for _, be := range preds {
				if be != nil {
					be.Stop()
				}
			}
			pred.Pool.Stop()
		}
		// bind attaches each channel's successor backend, which joins the
		// shard's current handler set and takes over what lived on the old
		// backend.
		bind := func(successor func(j int) (*cvd.Backend, error)) error {
			for j, c := range chs {
				be, err := successor(j)
				if err != nil {
					return err
				}
				c.g.attach(c.path, be)
			}
			return nil
		}

		var err error
		if !warm {
			retire()
			m.resetShardDevices(i)
			// The restart invalidates every cached translation wholesale:
			// the software TLBs and the grant-validation caches restart cold,
			// like the grant-map caches the backend Stop calls above already
			// dropped.
			m.HV.FlushTranslationCaches()
			// Guests keep running through the reboot; their operations fail
			// fast with EREMOTE at the frontend because every backend is
			// stopped.
			perf.Spend(m.Env, "driver-vm", trace.LayerSupervisor, "restart", perf.CostDriverVMRestart)
			var succ DriverShard
			if succ, err = m.bootShard(i, true); err != nil {
				return err
			}
			m.installShard(succ)
			err = bind(func(j int) (*cvd.Backend, error) {
				return cvd.Reconnect(fes[j], m.HV, sh.VM, sh.K, chs[j].path)
			})
		} else {
			var succ DriverShard
			var preps []*cvd.HandoverPrep
			var ep handover.Episode
			ep, err = handover.Run(m.Env, fes, handover.Hooks{
				Prepare: func() (err error) {
					if succ, err = m.bootShard(i, false); err != nil {
						return err
					}
					perf.Spend(m.Env, "driver-vm", trace.LayerSupervisor, "successor-boot", perf.CostDriverVMRestart)
					return nil
				},
				Switch: func() error {
					// Pre-build every channel's successor state first, so an
					// error here leaves the machine exactly as it was.
					for _, fe := range fes {
						prep, err := cvd.PrepareHandover(fe, m.HV, succ.VM, succ.K)
						if err != nil {
							return err
						}
						preps = append(preps, prep)
					}
					// Commit. The shard's devices reset and reattach to the
					// successor — the "device re-probe", safe because the rings
					// are idle — and past this point a failure cannot be rolled
					// back (the predecessor no longer owns the devices);
					// attachDrivers only fails on host resource exhaustion.
					m.resetShardDevices(i)
					if err := m.attachDrivers(succ.VM, succ.K, i); err != nil {
						return fmt.Errorf("paradice: handover switch cannot roll back: %w", err)
					}
					m.installShard(succ)
					perf.Spend(m.Env, "driver-vm", trace.LayerSupervisor, "handover-switch", perf.CostHandoverSwitch)
					if err := bind(func(j int) (*cvd.Backend, error) { return preps[j].Bind(chs[j].path) }); err != nil {
						return fmt.Errorf("paradice: handover switch cannot roll back: %w", err)
					}
					// Retire the predecessor (its rings' epochs have moved on
					// already), then flush ITS translation caches only: the
					// guests' TLB and grant-vector entries describe state the
					// handover never touched and stay warm.
					retire()
					m.HV.FlushVMTranslationCaches(pred.VM)
					return nil
				},
				Abort: func() {
					// Discard in prepare order: deterministic unmap charges.
					// Preps that were bound have nothing left to discard. The
					// booted successor VM's RAM is leaked (its handler set never
					// spawned) — the hypervisor has no DestroyVM, same as an
					// abandoned pre-restart driver VM.
					for _, prep := range preps {
						prep.Discard()
					}
				},
			})
			m.handovers = append(m.handovers, ep)
		}
		if err != nil {
			return err
		}
		m.restartEpoch++
	}
	return nil
}

// shardChannels returns the channels shard i serves: guests in order, each
// guest's paths sorted. Every lifecycle loop and supervisor sweep walks this,
// never the map, so charges and fault-plan consultations are deterministic.
func (m *Machine) shardChannels(i int) []machineChannel {
	var chs []machineChannel
	for _, g := range m.guests {
		n := len(chs)
		for path := range g.Frontends {
			if m.pins[path] == i {
				chs = append(chs, machineChannel{g: g, path: path})
			}
		}
		own := chs[n:]
		sort.Slice(own, func(a, b int) bool { return own[a].path < own[b].path })
	}
	return chs
}

// resetShardDevices gives the shard's devices a function-level reset — the
// hardware survives a driver-VM lifecycle event, its volatile state does
// not. Devices owned by other shards keep running.
func (m *Machine) resetShardDevices(shard int) {
	devs := map[string]interface{ Reset() }{
		PathGPU: m.GPU, PathNetmap: m.NIC, PathMouse: m.Mouse,
		PathKeyboard: m.Keyboard, PathCamera: m.Camera, PathAudio: m.Audio,
	}
	for _, path := range standardPaths {
		if m.pins[path] == shard {
			devs[path].Reset()
		}
	}
}

// RestartEpoch counts completed driver-VM replacements, restarts and
// handovers alike, one per shard. Tests use it to assert that supervision
// did (or did not) restart the machine.
func (m *Machine) RestartEpoch() uint64 { return m.restartEpoch }

// Handovers returns the planned-handover episode log, committed and aborted
// alike, in order.
func (m *Machine) Handovers() []handover.Episode { return m.handovers }

// RequestHandover queues a planned driver-VM handover to run on the
// supervisor's watchdog proc — the recommended entry point on a supervised
// machine, because the watchdog then cannot mistake the drain window for an
// outage (the maintenance and the heartbeat sweeps are serialized on the
// same proc). The outcome lands in the supervisor's state-change log and the
// machine's Handovers episode log. Returns an error when the machine is not
// supervised or the supervisor has stopped.
func (m *Machine) RequestHandover() error {
	sup := m.Supervisor()
	if sup == nil {
		return fmt.Errorf("paradice: RequestHandover requires Config.Supervise (call HandoverDriverVM directly instead)")
	}
	if !sup.RequestMaintenance("driver-VM handover", func(p *sim.Proc) error {
		return m.HandoverDriverVM()
	}) {
		return fmt.Errorf("paradice: supervisor not accepting maintenance (stopped, degraded, or busy)")
	}
	return nil
}
