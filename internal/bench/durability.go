package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The durability sweep (not in the paper — the paper scopes durability out;
// DESIGN.md §6 describes the subsystem it measures) has three parts:
//
//   - the logging overhead: per write-heavy workload, virtual-time
//     throughput with the log on against the same workload with it off,
//     and the records and flushes the log took;
//   - recovery time: every server of a populated deployment crashes and
//     recovers, once from the log alone and once from a checkpoint plus
//     the log's tail;
//   - the self-verifying crash-injection workload, which kills and recovers
//     every server mid-run.
//
// The record, flush and byte counts follow from the op stream and are gated
// exactly (BENCH_durability.json); throughput and recovery times are
// virtual time that follows host order, printed and not gated.

// DurabilityPoint is one row of the durability sweep.
type DurabilityPoint struct {
	// Row names it: "<benchmark> wal off" / "<benchmark> wal on" for the
	// overhead rows, "log replay only" / "checkpoint + tail" for recovery,
	// and the crash-injection workload's name.
	Row     string
	Ops     int
	Seconds float64
	// VsOff is the wal-on row's throughput relative to its wal-off twin.
	VsOff float64 `json:"-"`
	// Log records written and flushes (overhead and crash rows), or records
	// replayed (recovery rows).
	Records uint64
	Flushes uint64
	// Log and checkpoint bytes recovery read back, and the slowest and mean
	// server's recovery time.
	LogBytes      uint64
	CkptBytes     uint64
	MaxRecoveryMs float64
	AvgRecoveryMs float64
}

func (p DurabilityPoint) key() string { return p.Row }

func (p DurabilityPoint) gated(c DurabilityPoint) DurabilityPoint {
	p.Seconds, p.VsOff, p.MaxRecoveryMs, p.AvgRecoveryMs = c.Seconds, c.VsOff, c.MaxRecoveryMs, c.AvgRecoveryMs
	return p
}

var durabilitySweep = &sweep[DurabilityPoint]{
	name:  "durability",
	title: "Durability sweep: logging overhead, recovery time, crash injection",
	note: "ops/s is virtual time; vs no-wal is relative to durability disabled. Every durable request is one flush, so recs/flush is the records a request stages. Recovery crashes every server after a populate run; a checkpoint trades snapshot bytes for a shorter replay tail. The crash-injection workload verifies after every recovery that the namespace and file contents are byte-identical to a crash-free run. " +
		"Gated exactly: Ops, Records, Flushes, LogBytes, CkptBytes; ops/s and recovery times are printed, not gated.",
	columns: []string{"row", "ops", "ops/s", "vs no-wal", "records", "flushes", "recs/flush",
		"log bytes", "ckpt bytes", "max recovery (ms)", "avg recovery (ms)"},
	row: func(p DurabilityPoint) []string {
		thr := "-"
		if p.Seconds > 0 {
			thr = f1(float64(p.Ops) / p.Seconds)
		}
		return []string{p.Row, fmt.Sprint(p.Ops), thr, f2(p.VsOff), fmt.Sprint(p.Records), fmt.Sprint(p.Flushes),
			f1(stats.PerOp(p.Records, int(p.Flushes))), fmt.Sprint(p.LogBytes), fmt.Sprint(p.CkptBytes),
			fmt.Sprintf("%.3f", p.MaxRecoveryMs), fmt.Sprintf("%.3f", p.AvgRecoveryMs)}
	},
	beside: []int{2, 9},
	run: func(p Params) ([]DurabilityPoint, map[string]string, error) {
		var points []DurabilityPoint
		for _, part := range []func(float64, int) ([]DurabilityPoint, error){durabilityOverhead, recoveryTime, crashWorkload} {
			more, err := part(p.Scale, p.Cores)
			if err != nil {
				return nil, nil, err
			}
			points = append(points, more...)
		}
		return points, nil, nil
	},
}

// durableHare is the durable deployment every part of the sweep runs on.
func durableHare(cores int, logging bool, placement sched.Policy, scale float64) (*core.System, *workload.Env, error) {
	opts := DefaultHare(cores)
	opts.Durability = core.Durability{Enabled: logging}
	return opts.startEnv(placement, scale)
}

// runOn runs one workload (setup + timed region) on an existing system and
// returns ops and elapsed virtual time.
func runOn(sys *core.System, env *workload.Env, w workload.Workload) (int, sim.Cycles, error) {
	if err := w.Setup(env); err != nil {
		return 0, 0, fmt.Errorf("bench: %s setup: %w", w.Name(), err)
	}
	start := sys.Procs().MaxEndTime()
	ops, err := w.Run(env)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: %s run: %w", w.Name(), err)
	}
	elapsed := sys.Procs().MaxEndTime() - start
	if elapsed == 0 {
		elapsed = 1
	}
	return ops, elapsed, nil
}

// logTotals sums the log's records and flushes over every server.
func logTotals(sys *core.System) wal.Stats {
	var t wal.Stats
	for _, s := range sys.WalStats() {
		t.Records += s.Records
		t.Flushes += s.Flushes
	}
	return t
}

// durabilityOverhead measures the cost of write-ahead logging on
// write-heavy workloads: each runs with durability off, then on.
func durabilityOverhead(scale float64, cores int) ([]DurabilityPoint, error) {
	var points []DurabilityPoint
	for _, w := range []workload.Workload{workload.Creates{}, workload.Writes{}, workload.Directories{}} {
		var offThr float64
		for _, on := range []bool{false, true} {
			sys, env, err := durableHare(cores, on, w.Placement(), scale)
			if err != nil {
				return nil, err
			}
			ops, elapsed, err := runOn(sys, env, w)
			log := logTotals(sys)
			sys.Stop()
			if err != nil {
				return nil, err
			}
			p := DurabilityPoint{Row: w.Name() + " wal off", Ops: ops, Seconds: sys.Seconds(elapsed),
				Records: log.Records, Flushes: log.Flushes}
			if on {
				p.Row = w.Name() + " wal on"
				p.VsOff = float64(ops) / p.Seconds / offThr
			} else {
				offThr, p.VsOff = float64(ops)/p.Seconds, 1
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// recoveryTime populates a durable deployment, crashes every server, and
// measures per-server recovery work and virtual recovery time — once
// recovering from the log alone and once from a checkpoint plus log tail.
func recoveryTime(scale float64, cores int) ([]DurabilityPoint, error) {
	var points []DurabilityPoint
	for _, withCkpt := range []bool{false, true} {
		sys, env, err := durableHare(cores, true, sched.PolicyRoundRobin, scale)
		if err != nil {
			return nil, err
		}
		p, err := crashAndRecoverAll(sys, env, withCkpt)
		sys.Stop()
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// crashAndRecoverAll is one recovery-time row. Both modes perform identical
// work: a metadata- and data-heavy populate phase, then a directory churn
// phase. The checkpointed mode folds the first phase into a snapshot, so its
// recovery replays only the second phase's records.
func crashAndRecoverAll(sys *core.System, env *workload.Env, withCkpt bool) (DurabilityPoint, error) {
	p := DurabilityPoint{Row: "log replay only"}
	ctl := sys.NewClient(0) // the quiescent deployment's control calls
	for _, w := range []workload.Workload{workload.Creates{}, workload.Writes{}} {
		if _, _, err := runOn(sys, env, w); err != nil {
			return p, err
		}
	}
	if withCkpt {
		p.Row = "checkpoint + tail"
		if err := sys.CheckpointAll(ctl); err != nil {
			return p, err
		}
	}
	if _, _, err := runOn(sys, env, workload.Directories{}); err != nil {
		return p, err
	}
	var maxCycles, sumCycles sim.Cycles
	for i := 0; i < sys.NumServers(); i++ {
		if err := sys.Crash(ctl, i); err != nil {
			return p, err
		}
		st, err := sys.Recover(ctl, i)
		if err != nil {
			return p, err
		}
		p.Records += uint64(st.Records)
		p.LogBytes += uint64(st.Bytes)
		p.CkptBytes += uint64(st.CheckpointBytes)
		sumCycles += st.Cycles
		maxCycles = max(maxCycles, st.Cycles)
	}
	p.MaxRecoveryMs = sys.Seconds(maxCycles) * 1000
	p.AvgRecoveryMs = sys.Seconds(sumCycles) * 1000 / float64(sys.NumServers())
	return p, nil
}

// crashWorkload runs the crash-injection workload on a durable deployment:
// a self-verifying row, since the workload errors if any recovered state
// diverges from the crash-free shadow model.
func crashWorkload(scale float64, cores int) ([]DurabilityPoint, error) {
	sys, env, err := durableHare(cores, true, sched.PolicyRoundRobin, scale)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()
	w := workload.CrashRecovery{}
	ops, elapsed, err := runOn(sys, env, w)
	if err != nil {
		return nil, err
	}
	log := logTotals(sys)
	return []DurabilityPoint{{Row: w.Name(), Ops: ops, Seconds: sys.Seconds(elapsed), Records: log.Records, Flushes: log.Flushes}}, nil
}
