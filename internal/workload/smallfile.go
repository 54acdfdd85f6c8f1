package workload

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/sched"
)

// SmallFile is the small-file churn microbenchmark: every worker repeatedly
// creates a file in a shared (distributed) directory, optionally writes a
// small payload, closes it, and immediately unlinks it — the lifecycle of
// lock files, temporary build artifacts, and mail spool entries. It is the
// workload most sensitive to per-operation message count, which makes it
// the acceptance benchmark for the async RPC pipeline (DESIGN.md §7): the
// unlink's RM_MAP + UNLINK_INODE share one message.
type SmallFile struct {
	PerWorker int
	// WriteBytes, when non-zero, writes that many bytes into each file
	// before closing it (adds an EXTEND — which rides with the create from a
	// worker's second file on, DESIGN.md §7 — and a size-carrying CLOSE).
	WriteBytes int
}

// Name implements Workload. The written variant reports under its own name:
// its per-file message economy is a different one.
func (w SmallFile) Name() string {
	if w.WriteBytes > 0 {
		return "smallfile+write"
	}
	return "smallfile"
}

// Placement implements Workload.
func (SmallFile) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates the shared distributed directory.
func (SmallFile) Setup(env *Env) error {
	return runRoot(env, "smallfile-setup", func(p *sched.Proc) int {
		if err := env.fs(p).Mkdir("/small", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return 0
	})
}

// Run implements Workload.
func (w SmallFile) Run(env *Env) (int, error) {
	per := w.PerWorker
	if per == 0 {
		per = env.iters(300)
	}
	n := env.workers()
	opsPerFile := 3 // create, close, unlink
	if w.WriteBytes > 0 {
		opsPerFile++
	}
	err := runRoot(env, "smallfile", func(p *sched.Proc) int {
		return fanOut(p, n, func(wp *sched.Proc, idx int) int {
			fs := env.fs(wp)
			var buf []byte
			if w.WriteBytes > 0 {
				buf = make([]byte, w.WriteBytes)
				fillPattern(buf, uint64(idx)+1)
			}
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("/small/w%02d-f%05d", idx, i)
				fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if len(buf) > 0 {
					if _, err := fs.Write(fd, buf); err != nil {
						return 1
					}
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
				if err := fs.Unlink(name); err != nil {
					return 1
				}
			}
			return 0
		})
	})
	return per * n * opsPerFile, err
}
