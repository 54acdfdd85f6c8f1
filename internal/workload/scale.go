package workload

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/sched"
)

// ScaleSweep is the harness-scaling workload behind `hare-bench -scale`: every
// worker builds and then walks a large private subtree (mkdir + create +
// stat), with nothing shared between workers except the root directory. The
// disjoint per-worker namespaces keep it valid under the parallel virtual-time
// engine (DESIGN.md §13) and let file counts reach millions without the
// cross-worker contention the paper's microbenchmarks deliberately create —
// this workload measures the harness, not Hare.
type ScaleSweep struct {
	// FilesPerWorker is how many files each worker creates (spread over
	// DirsPerWorker subdirectories). Zero means env.iters(2000).
	FilesPerWorker int
	// DirsPerWorker is how many subdirectories each worker spreads its files
	// over. Zero means one directory per 512 files (at least 1).
	DirsPerWorker int
	// StatEvery makes each worker re-stat every StatEvery'th file after the
	// create phase. Zero means 8.
	StatEvery int

	// paths holds, once Prepare has built them, each worker's subtree root,
	// directories and files, in the order Run makes them.
	paths [][]string
}

// Name implements Workload.
func (ScaleSweep) Name() string { return "scale" }

// Placement implements Workload.
func (ScaleSweep) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates the shared root directory.
func (ScaleSweep) Setup(env *Env) error {
	return runRoot(env, "scale-setup", func(p *sched.Proc) int {
		if err := env.fs(p).Mkdir("/scale", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return 0
	})
}

// params resolves the workload's tunables against the environment.
func (w ScaleSweep) params(env *Env) (files, dirs, statEvery int) {
	files = w.FilesPerWorker
	if files == 0 {
		files = env.iters(2000)
	}
	dirs = w.DirsPerWorker
	if dirs == 0 {
		dirs = (files + 511) / 512
	}
	if dirs < 1 {
		dirs = 1
	}
	statEvery = w.StatEvery
	if statEvery == 0 {
		statEvery = 8
	}
	return files, dirs, statEvery
}

// Ops returns the operation count Run will report, without running anything
// (the bench sweep uses it to size throughput columns up front).
func (w ScaleSweep) Ops(env *Env) int {
	files, dirs, statEvery := w.params(env)
	n := env.workers()
	perWorker := 1 + dirs + files*2 + (files+statEvery-1)/statEvery
	return perWorker * n
}

// Prepare builds every path Run will use — each worker's subtree root, its
// directories, then its files spread over them — so that a caller who times
// Run (the scale sweep) times the file system and not the formatting of
// names. Run prepares them itself, before its workers start, when nothing
// was prepared.
func (w *ScaleSweep) Prepare(env *Env) {
	files, dirs, _ := w.params(env)
	w.paths = make([][]string, env.workers())
	for idx := range w.paths {
		p := append(make([]string, 0, 1+dirs+files), fmt.Sprintf("/scale/w%04d", idx))
		for d := 0; d < dirs; d++ {
			p = append(p, fmt.Sprintf("%s/d%04d", p[0], d))
		}
		for i := 0; i < files; i++ {
			p = append(p, fmt.Sprintf("%s/f%07d", p[1+i%dirs], i))
		}
		w.paths[idx] = p
	}
}

// Run implements Workload. Each worker performs, in its own subtree:
// one mkdir for the subtree root, DirsPerWorker mkdirs, FilesPerWorker
// create+close pairs, and FilesPerWorker/StatEvery stats.
func (w ScaleSweep) Run(env *Env) (int, error) {
	_, dirs, statEvery := w.params(env)
	if w.paths == nil {
		w.Prepare(env)
	}
	err := runRoot(env, "scale", func(p *sched.Proc) int {
		return fanOut(p, len(w.paths), func(wp *sched.Proc, idx int) int {
			fs := env.fs(wp)
			for _, dir := range w.paths[idx][:1+dirs] {
				if err := fs.Mkdir(dir, fsapi.MkdirOpt{}); err != nil {
					return 1
				}
			}
			names := w.paths[idx][1+dirs:]
			for _, name := range names {
				fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
			}
			for i := 0; i < len(names); i += statEvery {
				if _, err := fs.Stat(names[i]); err != nil {
					return 1
				}
			}
			return 0
		})
	})
	if err != nil {
		return 0, err
	}
	return w.Ops(env), nil
}
