package workload

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Elastic is the scale-out-under-load workload (DESIGN.md §9): worker
// processes hammer a distributed directory with create/write/read-back
// traffic in two phases, and between the phases the deployment grows by one
// file server — shard migration runs while phase B's traffic arrives, so
// frozen-shard parking, EEPOCH refresh, and post-rebalance routing are all
// on the measured path. With Drain set, the grown server is drained again
// afterwards and the whole tree re-verified, exercising the reverse
// membership change.
//
// On a backend without an ElasticController the membership changes are
// skipped and the same operation stream runs statically; the elastic
// namespace-equivalence tests rely on the two runs producing byte-identical
// trees.
type Elastic struct {
	// PerWorker is how many files each worker creates per phase
	// (default 24, scaled by Env.Scale).
	PerWorker int
	// Drain also drains the added server again after phase B.
	Drain bool

	// Measured by Run (virtual time of each phase, and the id the backend
	// assigned to the added server).
	PreCycles   sim.Cycles
	PostCycles  sim.Cycles
	AddedServer int
}

// Name implements Workload.
func (e *Elastic) Name() string { return "elastic" }

// Placement implements Workload.
func (e *Elastic) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates the shared distributed directory.
func (e *Elastic) Setup(env *Env) error {
	return runRoot(env, "elastic-setup", func(p *sched.Proc) int {
		if err := env.fs(p).Mkdir("/elastic", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return 0
	})
}

// phase runs one create/write/read-back wave and returns the latest child
// completion time.
func (e *Elastic) phase(env *Env, p *sched.Proc, prefix string, per int) (sim.Cycles, int) {
	workers := env.workers()
	handles := make([]*sched.Handle, 0, workers)
	for wi := 0; wi < workers; wi++ {
		idx := wi
		h, err := p.Spawn([]string{fmt.Sprintf("elastic-%s-%d", prefix, idx)}, func(wp *sched.Proc) int {
			fs := env.fs(wp)
			for i := 0; i < per; i++ {
				path := fmt.Sprintf("/elastic/%s-w%02d-%04d", prefix, idx, i)
				fd, err := fs.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if _, err := fs.Write(fd, []byte(path)); err != nil {
					return 1
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
				fd, err = fs.Open(path, fsapi.ORdOnly, 0)
				if err != nil {
					return 1
				}
				buf := make([]byte, len(path))
				n, err := fs.Read(fd, buf)
				if err != nil || string(buf[:n]) != path {
					return 1
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
			}
			return 0
		}, true)
		if err != nil {
			return 0, 1
		}
		handles = append(handles, h)
	}
	// Waiting brings the root's clock to the phase boundary, so consecutive
	// phases do not overlap in virtual time.
	status := p.Wait(handles...)
	return p.Now(), status
}

// Run executes the two traffic phases around the membership change and
// returns the number of files processed.
func (e *Elastic) Run(env *Env) (int, error) {
	per := env.iters(e.PerWorker)
	if e.PerWorker == 0 {
		per = env.iters(24)
	}
	workers := env.workers()
	var runErr error
	err := runRoot(env, "elastic", func(p *sched.Proc) int {
		start := p.Now()
		endA, status := e.phase(env, p, "a", per)
		if status != 0 {
			runErr = fmt.Errorf("elastic: phase A failed")
			return 1
		}
		e.PreCycles = endA - start

		if env.Elastic != nil {
			err := hostCall(p, func() (err error) {
				e.AddedServer, err = env.Elastic.AddServer()
				return err
			})
			if err != nil {
				runErr = fmt.Errorf("elastic: add server: %w", err)
				return 1
			}
		}

		endB, status := e.phase(env, p, "b", per)
		if status != 0 {
			runErr = fmt.Errorf("elastic: phase B failed")
			return 1
		}
		e.PostCycles = endB - endA

		if e.Drain && env.Elastic != nil {
			err := hostCall(p, func() error { return env.Elastic.RemoveServer(e.AddedServer) })
			if err != nil {
				runErr = fmt.Errorf("elastic: drain server %d: %w", e.AddedServer, err)
				return 1
			}
		}

		// Final verification sweep: every file from both phases must
		// still resolve and read back after all the shard movement.
		fs := env.fs(p)
		for _, prefix := range []string{"a", "b"} {
			for wi := 0; wi < workers; wi++ {
				for i := 0; i < per; i++ {
					path := fmt.Sprintf("/elastic/%s-w%02d-%04d", prefix, wi, i)
					st, err := fs.Stat(path)
					if err != nil || st.Size != int64(len(path)) {
						runErr = fmt.Errorf("elastic: verify %s: size %d err %v", path, st.Size, err)
						return 1
					}
				}
			}
		}
		return 0
	})
	if runErr != nil {
		return 0, runErr
	}
	if err != nil {
		return 0, err
	}
	return 2 * per * workers, nil
}
