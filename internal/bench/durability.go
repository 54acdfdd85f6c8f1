package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Durability figures (not in the paper — the paper scopes durability out;
// DESIGN.md §6 describes the subsystem these measure).
//
// DurabilityOverhead reports, per write-heavy workload, the virtual-time
// throughput with the log on relative to running with durability off,
// together with the records each flush carried.
//
// RecoveryTime crashes every server of a populated deployment and reports
// how long recovery takes in virtual time, with and without a checkpoint.

// durableHare builds a started Hare deployment with the given durability
// settings, returning the system and an Env for running workloads on it.
func durableHare(cores int, d core.Durability, placement sched.Policy, scale float64) (*core.System, *workload.Env, error) {
	cfg := core.Config{
		Cores:      cores,
		Servers:    cores,
		Timeshare:  true,
		Techniques: core.AllTechniques(),
		Placement:  placement,
		Durability: d,
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: building durable hare: %w", err)
	}
	sys.Start()
	env := &workload.Env{
		Procs:  sys.Procs(),
		Cores:  sys.AppCores(),
		Scale:  scale,
		Faults: sysFaults{sys},
	}
	return sys, env, nil
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

// DurabilityOverhead measures the cost of write-ahead logging on
// write-heavy workloads. Throughput is normalized to the same workload with
// durability off.
func DurabilityOverhead(scale float64, cores int) (*Table, error) {
	ws := []workload.Workload{workload.Creates{}, workload.Writes{}, workload.Directories{}}

	t := &Table{
		Title: fmt.Sprintf("Durability overhead on %d cores", cores),
		Columns: []string{"configuration", "benchmark", "ops/s", "vs no-wal",
			"records", "flushes", "recs/flush"},
		Note: "Throughput is virtual-time ops/s; vs no-wal is relative to durability disabled. Every durable request is one flush, so recs/flush is the records a request stages.",
	}

	for _, w := range ws {
		base := 0.0
		for _, on := range []bool{false, true} {
			sys, env, err := durableHare(cores, core.Durability{Enabled: on}, w.Placement(), scale)
			if err != nil {
				return nil, err
			}
			ops, elapsed, err := runOn(sys, env, w)
			if err != nil {
				sys.Stop()
				return nil, err
			}
			var lst wal.Stats
			for _, s := range sys.WalStats() {
				lst.Records += s.Records
				lst.Flushes += s.Flushes
			}
			sys.Stop()

			thr := float64(ops) / sys.Seconds(elapsed)
			name, rel, recsPerFlush := "wal off", "1.00", "-"
			if on {
				name, rel = "wal on", f2(thr/base)
				if lst.Flushes > 0 {
					recsPerFlush = f1(float64(lst.Records) / float64(lst.Flushes))
				}
			} else {
				base = thr
			}
			t.AddRow(name, w.Name(), f1(thr), rel,
				fmt.Sprintf("%d", lst.Records), fmt.Sprintf("%d", lst.Flushes), recsPerFlush)
		}
	}
	return t, nil
}

// RecoveryTime populates a durable deployment, crashes every server, and
// reports per-server recovery work and virtual recovery time — once
// recovering from the log alone and once from a checkpoint plus log tail.
func RecoveryTime(scale float64, cores int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Recovery time: crash all %d servers after a populate run", cores),
		Columns: []string{"mode", "records replayed", "log bytes", "ckpt bytes", "max recovery", "avg recovery"},
		Note:    "Recovery time is virtual (cycles converted to ms). A checkpoint trades snapshot bytes for a shorter replay tail.",
	}

	for _, withCkpt := range []bool{false, true} {
		sys, env, err := durableHare(cores, core.Durability{Enabled: true}, sched.PolicyRoundRobin, scale)
		if err != nil {
			return nil, err
		}
		// Both modes perform identical work: a metadata- and data-heavy
		// populate phase, then a directory churn phase. The checkpointed
		// mode folds the first phase into a snapshot, so its recovery
		// replays only the second phase's records.
		for _, w := range []workload.Workload{workload.Creates{}, workload.Writes{}} {
			if _, _, err := runOn(sys, env, w); err != nil {
				sys.Stop()
				return nil, err
			}
		}
		if withCkpt {
			if err := sys.CheckpointAll(); err != nil {
				sys.Stop()
				return nil, err
			}
		}
		if _, _, err := runOn(sys, env, workload.Directories{}); err != nil {
			sys.Stop()
			return nil, err
		}

		var totRecs, totLogBytes, totCkptBytes int
		var maxCycles, sumCycles sim.Cycles
		for i := 0; i < sys.NumServers(); i++ {
			if err := sys.Crash(i); err != nil {
				sys.Stop()
				return nil, err
			}
			st, err := sys.Recover(i)
			if err != nil {
				sys.Stop()
				return nil, err
			}
			totRecs += st.Records
			totLogBytes += int(st.Bytes)
			totCkptBytes += st.CheckpointBytes
			sumCycles += st.Cycles
			if st.Cycles > maxCycles {
				maxCycles = st.Cycles
			}
		}
		mode := "log replay only"
		if withCkpt {
			mode = "checkpoint + tail"
		}
		n := sys.NumServers()
		t.AddRow(mode,
			fmt.Sprintf("%d", totRecs),
			fmt.Sprintf("%d", totLogBytes),
			fmt.Sprintf("%d", totCkptBytes),
			fmt.Sprintf("%.3f ms", sys.Seconds(maxCycles)*1000),
			fmt.Sprintf("%.3f ms", sys.Seconds(sumCycles)*1000/float64(n)))
		sys.Stop()
	}
	return t, nil
}

// CrashWorkloadCheck runs the crash-injection workload on a durable Hare
// deployment and returns its table (a self-verifying pass/fail figure: the
// workload errors if any recovered state diverges from the crash-free
// shadow model).
func CrashWorkloadCheck(scale float64, cores int) (*Table, error) {
	sys, env, err := durableHare(cores, core.Durability{Enabled: true}, sched.PolicyRoundRobin, scale)
	if err != nil {
		return nil, err
	}
	defer sys.Stop()
	w := workload.CrashRecovery{}
	ops, elapsed, err := runOn(sys, env, w)
	if err != nil {
		return nil, err
	}
	var recs uint64
	for _, s := range sys.WalStats() {
		recs += s.Records
	}
	t := &Table{
		Title:   "Crash-injection workload: every server killed and recovered mid-run",
		Columns: []string{"benchmark", "ops", "wal records", "virtual time", "verdict"},
		Note:    "The workload verifies after every recovery that the namespace and file contents are byte-identical to a crash-free run (and that recovering twice is a no-op).",
	}
	t.AddRow(w.Name(), fmt.Sprintf("%d", ops), fmt.Sprintf("%d", recs),
		fmt.Sprintf("%.3f ms", sys.Seconds(elapsed)*1000), "ok")
	return t, nil
}
