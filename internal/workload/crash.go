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

// writeShadowFile creates (or rewrites) a file in both worlds (the shared
// shadow.Model is the crash-free reference state; DESIGN.md §10).
func writeShadowFile(fs fsapi.Client, s *shadow.Model, path string, data []byte) error {
	fd, err := fs.Open(path, fsapi.OCreate|fsapi.OWrOnly|fsapi.OTrunc, fsapi.Mode644)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if _, err := fs.Write(fd, data); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := fs.Close(fd); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	s.SetFile(path, data, -1)
	return nil
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

	// mutate performs one round of mixed namespace and data operations.
	mutate := func(fs fsapi.Client, round int) error {
		dir := fmt.Sprintf("/crash/r%02d", round)
		if err := fs.Mkdir(dir, fsapi.MkdirOpt{}); err != nil {
			return fmt.Errorf("mkdir %s: %w", dir, err)
		}
		sh.Mkdir(dir)
		ops++
		for i := 0; i < per; i++ {
			data := make([]byte, 512*(1+(round+i)%9)) // up to ~4.5 KiB: some files span blocks
			fillPattern(data, uint64(round*100+i+1))
			if err := writeShadowFile(fs, sh, fmt.Sprintf("%s/f%02d", dir, i), data); err != nil {
				return err
			}
			ops++
		}
		// Rename one file into the shared parent (two-server protocol).
		from := fmt.Sprintf("%s/f00", dir)
		to := fmt.Sprintf("/crash/moved-r%02d", round)
		if err := fs.Rename(from, to); err != nil {
			return fmt.Errorf("rename %s: %w", from, err)
		}
		sh.Rename(from, to)
		ops++
		// Unlink another.
		victim := fmt.Sprintf("%s/f01", dir)
		if per > 1 {
			if err := fs.Unlink(victim); err != nil {
				return fmt.Errorf("unlink %s: %w", victim, err)
			}
			sh.Unlink(victim)
			ops++
		}
		// A directory that is created and removed within the round: its
		// tombstone must survive recovery (a recreated name must work, a
		// stale lookup must not).
		tmp := fmt.Sprintf("%s/tmpdir", dir)
		if err := fs.Mkdir(tmp, fsapi.MkdirOpt{}); err != nil {
			return fmt.Errorf("mkdir %s: %w", tmp, err)
		}
		if err := fs.Rmdir(tmp); err != nil {
			return fmt.Errorf("rmdir %s: %w", tmp, err)
		}
		ops += 2
		return nil
	}

	err := runRoot(env, "crash-recovery", func(p *sched.Proc) int {
		fs := env.fs(p)
		// inject runs fault-injector calls against srv, in order.
		inject := func(srv int, steps ...func(int) error) error {
			return hostCall(p, func() error {
				for _, step := range steps {
					if err := step(srv); err != nil {
						return err
					}
				}
				return nil
			})
		}
		for srv := 0; srv < nsrv; srv++ {
			if runErr = mutate(fs, 2*srv); runErr != nil {
				return 1
			}
			if srv%2 == 0 {
				// Even rounds: fold state into a checkpoint, then mutate
				// more so recovery must also replay a log tail.
				if runErr = inject(srv, faults.Checkpoint); runErr != nil {
					return 1
				}
			}
			if runErr = mutate(fs, 2*srv+1); runErr != nil {
				return 1
			}

			// The system is quiescent: kill the victim and bring it back.
			steps := []func(int) error{faults.Crash, faults.Recover}
			if srv == 0 {
				// Idempotence: a second crash/recover with no mutations in
				// between must reproduce the same state (verified below).
				steps = append(steps, faults.Crash, faults.Recover)
			}
			if runErr = inject(srv, steps...); runErr != nil {
				return 1
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
