package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The failover sweep (DESIGN.md §12): write-heavy workloads run with
// replication off and sync, measuring what WAL shipping costs in throughput
// and extra messages — and what it buys when a server dies. With replication
// on, two identical deployments run the identical workload; one recovers a
// crashed server by replaying its log (the pre-replication path), the other
// promotes the server's warm replica. The promotion's stall must beat the
// replay: that gap is the entire point of keeping followers.

// FailoverPoint is one replication mode's measurement.
type FailoverPoint struct {
	Mode string
	Ops  int
	// Seconds is the virtual time of the timed workload region; VsOff is
	// this mode's throughput relative to replication off. Both follow host
	// order: the table prints them, the file keeps Seconds alone.
	Seconds float64
	VsOff   float64 `json:"-"`
	// ReplMsgs/ReplBytes are the replication plane's message economy during
	// the run; MaxLag is the widest acked-horizon gap any follower showed
	// after the run (0 under sync).
	ReplMsgs  uint64
	ReplBytes uint64
	MaxLag    uint64
	// ReplayMs is the virtual time a crashed server took to recover by WAL
	// replay (the control); ReplayRecords is its replay tail. PromoteMs is
	// the promotion stall on the identical twin deployment (0 for mode off,
	// which has no replica to promote), and LostRecords the acked records
	// the promotion lost (must be 0).
	ReplayMs      float64
	ReplayRecords int
	PromoteMs     float64
	LostRecords   uint64
}

// Speedup is the failover win: replay stall over promotion stall.
func (p FailoverPoint) Speedup() float64 {
	if p.PromoteMs == 0 {
		return 0
	}
	return p.ReplayMs / p.PromoteMs
}

// Throughput is the mode's virtual-time ops/s.
func (p FailoverPoint) Throughput() float64 {
	if p.Seconds == 0 {
		return 0
	}
	return float64(p.Ops) / p.Seconds
}

func (p FailoverPoint) key() string { return p.Mode }

func (p FailoverPoint) gated(c FailoverPoint) FailoverPoint {
	p.Seconds, p.VsOff = c.Seconds, c.VsOff
	return p
}

var failoverSweep = &sweep[FailoverPoint]{
	name:  "failover",
	title: "Failover sweep: WAL-shipped replicas",
	note: "Write-heavy workloads (creates + writes), no checkpoints, so the crashed server's whole history sits in its log. replay = recovery by log replay; promote = sealing and installing the follower's replica on an identical twin deployment. lost = acked records the promotion dropped (must be 0). " +
		"Gated exactly: Ops, ReplMsgs, ReplBytes, MaxLag, ReplayMs, ReplayRecords, PromoteMs, LostRecords; throughput is printed, not gated.",
	columns: []string{"mode", "ops/s", "vs off", "repl msgs", "repl KB", "lag",
		"replay (ms)", "promote (ms)", "speedup", "lost"},
	row: func(p FailoverPoint) []string {
		promote, speedup := "-", "-"
		if p.Mode != repl.Off.String() {
			promote, speedup = fmt.Sprintf("%.3f", p.PromoteMs), f2(p.Speedup())+"x"
		}
		return []string{p.Mode, f1(p.Throughput()), f2(p.VsOff), fmt.Sprint(p.ReplMsgs),
			f1(float64(p.ReplBytes) / 1024), fmt.Sprint(p.MaxLag), fmt.Sprintf("%.3f", p.ReplayMs),
			promote, speedup, fmt.Sprint(p.LostRecords)}
	},
	beside: []int{1},
	run: func(p Params) ([]FailoverPoint, map[string]string, error) {
		points, err := failoverPoints(p.Scale, p.Cores)
		return points, nil, err
	},
}

// failoverPoints measures replication off and sync.
func failoverPoints(scale float64, cores int) ([]FailoverPoint, error) {
	var points []FailoverPoint
	var offThr float64
	for _, mode := range []repl.Mode{repl.Off, repl.Sync} {
		p, err := failoverPoint(scale, cores, mode)
		if err != nil {
			return nil, err
		}
		if mode == repl.Off {
			offThr = p.Throughput()
		}
		if offThr > 0 {
			p.VsOff = p.Throughput() / offThr
		}
		points = append(points, p)
	}
	return points, nil
}

// failoverPoint measures one replication mode: the workload run and replay
// control on one deployment, the promotion stall on an identical twin.
func failoverPoint(scale float64, cores int, mode repl.Mode) (FailoverPoint, error) {
	ws := []workload.Workload{workload.Creates{}, workload.Writes{}}
	opts := DefaultHare(cores)
	opts.Durability = core.Durability{Enabled: true}
	opts.Replication = repl.Config{Mode: mode}
	run := func() (*core.System, int, sim.Cycles, error) {
		sys, env, err := opts.startEnv(sched.PolicyRoundRobin, scale)
		if err != nil {
			return nil, 0, 0, err
		}
		var ops int
		var elapsed sim.Cycles
		for _, w := range ws {
			o, e, err := runOn(sys, env, w)
			if err != nil {
				sys.Stop()
				return nil, 0, 0, err
			}
			ops += o
			elapsed += e
		}
		return sys, ops, elapsed, nil
	}

	sys, ops, elapsed, err := run()
	if err != nil {
		return FailoverPoint{}, err
	}
	secs := sys.Seconds(elapsed)
	p := FailoverPoint{Mode: mode.String(), Ops: ops, Seconds: secs}
	econ := sys.MessageEconomy()
	p.ReplMsgs = econ.ReplMsgs
	p.ReplBytes = econ.ReplBytes
	for _, rs := range sys.ReplicaStats() {
		if rs.Lag() > p.MaxLag {
			p.MaxLag = rs.Lag()
		}
	}

	// Replay control: crash a server and recover it from its log alone.
	const victim = 0
	if err := sys.Crash(victim); err != nil {
		sys.Stop()
		return p, err
	}
	st, err := sys.Recover(victim)
	sys.Stop()
	if err != nil {
		return p, err
	}
	p.ReplayMs = sys.Seconds(st.Cycles) * 1000
	p.ReplayRecords = st.Records
	if mode == repl.Off {
		return p, nil
	}

	// Promotion on the identical twin: same seed, same workload, same
	// victim — the only difference is how the server comes back.
	twin, _, _, err := run()
	if err != nil {
		return p, err
	}
	defer twin.Stop()
	if err := twin.Crash(victim); err != nil {
		return p, err
	}
	rep, err := twin.Failover(victim)
	if err != nil {
		return p, err
	}
	if rep.Fallback {
		return p, fmt.Errorf("bench: failover of server %d fell back to replay; the replica never caught up", victim)
	}
	p.PromoteMs = twin.Seconds(rep.StallCycles) * 1000
	p.LostRecords = rep.LostRecords
	return p, nil
}
