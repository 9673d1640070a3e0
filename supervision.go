package paradice

import (
	"paradice/internal/sim"
	"paradice/internal/supervise"
)

// This file adapts a Machine to internal/supervise: the watchdog sees every
// guest's CVD channels through the Channel interface and heals through
// RestartDriverShard. The adapter resolves guests, frontends, and backends
// lazily so channels added after machine construction (AddGuest +
// Paravirtualize) and backends replaced by restarts are always the current
// ones.

// Supervisor returns the driver-VM supervisor (shard 0's on a sharded
// machine), or nil when Config.Supervise is nil.
func (m *Machine) Supervisor() *supervise.Supervisor {
	if len(m.supervisors) == 0 {
		return nil
	}
	return m.supervisors[0]
}

// shardTarget adapts one driver-VM shard to supervise.Target: the shard's
// supervisor sweeps only the channels its shard serves and heals by
// restarting only its shard. With a single shard this is the whole machine —
// the seed's machineTarget behavior exactly.
type shardTarget struct {
	m   *Machine
	idx int
}

func (t shardTarget) Channels() []supervise.Channel {
	var chs []supervise.Channel
	for _, c := range t.m.shardChannels(t.idx) {
		chs = append(chs, c)
	}
	return chs
}

func (t shardTarget) Restart() error { return t.m.RestartDriverShard(t.idx) }

// machineChannel is one guest × device-file CVD connection. The identity is
// the (guest, path) pair — stable across driver VM restarts even though the
// backend object is replaced.
type machineChannel struct {
	g    *Guest
	path string
}

func (c machineChannel) ID() string { return c.g.K.Name + ":" + c.path }

func (c machineChannel) Heartbeat(p *sim.Proc, timeout sim.Duration) bool {
	fe := c.g.Frontends[c.path]
	if fe == nil {
		return false
	}
	return fe.Heartbeat(p, timeout)
}

func (c machineChannel) Alive() bool { return c.g.Frontends[c.path].Backend().Alive() }

func (c machineChannel) OnDeath(fn func()) { c.g.Frontends[c.path].Backend().OnDeath(fn) }

func (c machineChannel) SetDegraded(on bool) {
	if fe := c.g.Frontends[c.path]; fe != nil {
		fe.SetDegraded(on)
	}
}
