package workload

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/shadow"
)

// CrashRecovery is the fault-injection workload: it interleaves namespace
// and data mutations with server crashes, recovering each file server at
// least once mid-run, and verifies after every recovery that the namespace
// and every file's contents are byte-identical to a crash-free execution
// (tracked in an in-memory shadow model). Alternate rounds checkpoint the
// victim first, so both pure log replay and checkpoint+tail recovery are
// exercised; one round crashes and recovers twice back-to-back to verify
// replay idempotence.
//
// The workload requires a backend exposing Env.Faults (a Hare deployment
// with durability enabled) and drives all operations from a single process
// so the system is quiescent at each crash point.
type CrashRecovery struct {
	// FilesPerRound is how many files each mutation round creates
	// (default 6, scaled by Env.Scale).
	FilesPerRound int
}

// Name implements Workload.
func (CrashRecovery) Name() string { return "crash recovery" }

// Placement implements Workload.
func (CrashRecovery) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates the shared distributed directory the mutations live in.
func (CrashRecovery) Setup(env *Env) error {
	if env.Faults == nil {
		return fmt.Errorf("crash recovery: backend exposes no fault injector (enable durability on a Hare backend)")
	}
	return runRoot(env, "crash-setup", func(p *sched.Proc) int {
		if err := env.fs(p).Mkdir("/crash", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return 0
	})
}

// crashRound returns one round of mixed namespace and data operations:
// creates of up to ~4.5 KiB (some files span blocks), a rename into the
// shared parent (the two-server protocol), an unlink, and a directory made
// and removed within the round, whose tombstone must survive recovery (a
// recreated name must work, a stale lookup must not).
func crashRound(round, per int) []shadow.Op {
	dir := fmt.Sprintf("/crash/r%02d", round)
	ops := []shadow.Op{{Kind: shadow.OpMkdir, Path: dir}}
	for i := 0; i < per; i++ {
		ops = append(ops, shadow.Op{Kind: shadow.OpCreate, Path: fmt.Sprintf("%s/f%02d", dir, i),
			Size: 512 * (1 + (round+i)%9), Seed: uint64(round*100 + i + 1)})
	}
	ops = append(ops, shadow.Op{Kind: shadow.OpRename, Path: dir + "/f00", Path2: fmt.Sprintf("/crash/moved-r%02d", round)})
	if per > 1 {
		ops = append(ops, shadow.Op{Kind: shadow.OpUnlink, Path: dir + "/f01"})
	}
	return append(ops, shadow.Op{Kind: shadow.OpMkdir, Path: dir + "/tmpdir"}, shadow.Op{Kind: shadow.OpRmdir, Path: dir + "/tmpdir"})
}

// Run implements Workload.
func (w CrashRecovery) Run(env *Env) (int, error) {
	per := w.FilesPerRound
	if per == 0 {
		per = env.iters(6)
	}
	faults := env.Faults
	if faults == nil {
		return 0, fmt.Errorf("crash recovery: backend exposes no fault injector")
	}
	nsrv := faults.NumServers()
	sh := shadow.NewModel("/crash")
	ops := 0
	var runErr error

	// mutate runs one round on the live file system and checks every answer
	// against the shadow model, the crash-free reference (DESIGN.md §10).
	mutate := func(fs fsapi.Client, round int) error {
		for _, op := range crashRound(round, per) {
			if err := shadow.Check(op, shadow.Do(fs, op), sh.Step(op)); err != nil {
				return err
			}
			ops++
		}
		return nil
	}

	err := runRoot(env, "crash-recovery", func(p *sched.Proc) int {
		fs := env.fs(p)
		for srv := 0; srv < nsrv; srv++ {
			if runErr = mutate(fs, 2*srv); runErr != nil {
				return 1
			}
			if srv%2 == 0 {
				// Even rounds: fold state into a checkpoint, then mutate
				// more so recovery must also replay a log tail.
				if runErr = faults.Checkpoint(p.FS, srv); runErr != nil {
					return 1
				}
			}
			if runErr = mutate(fs, 2*srv+1); runErr != nil {
				return 1
			}

			// The system is quiescent: kill the victim and bring it back.
			steps := []func(fsapi.Client, int) error{faults.Crash, faults.Recover}
			if srv == 0 {
				// Idempotence: a second crash/recover with no mutations in
				// between must reproduce the same state (verified below).
				steps = append(steps, faults.Crash, faults.Recover)
			}
			for _, step := range steps {
				if runErr = step(p.FS, srv); runErr != nil {
					return 1
				}
			}
			if runErr = sh.Verify(fs); runErr != nil {
				runErr = fmt.Errorf("after recovering server %d: %w", srv, runErr)
				return 1
			}
		}
		return 0
	})
	if runErr != nil {
		return ops, runErr
	}
	return ops, err
}
