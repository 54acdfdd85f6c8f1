package workload

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

// cpu cost constants (cycles) for the application benchmarks' compute
// phases, roughly matching the paper's CPU-vs-IO balance.
const (
	decompressPerKiB = 9000   // gunzip-style decompression per KiB
	compilePerFile   = 4.8e6  // ~2 ms of compiler work per source file
	linkPerObject    = 400000 // linker work per object file
	deliverPerMsg    = 120000 // mail server processing per message
)

// Extract models decompressing and unpacking a kernel source archive (the
// paper's `extract` benchmark): a decompressor process streams data through
// a pipe to an unpacker process that creates directories and writes files.
type Extract struct {
	Dirs     int
	PerDir   int
	FileSize int
}

// Name implements Workload.
func (Extract) Name() string { return "extract" }

// Placement implements Workload.
func (Extract) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates the destination directory.
func (Extract) Setup(env *Env) error {
	return runRoot(env, "extract-setup", func(p *sched.Proc) int {
		if err := env.fs(p).Mkdir("/src", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return 0
	})
}

// Run implements Workload.
func (w Extract) Run(env *Env) (int, error) {
	dirs := w.Dirs
	if dirs == 0 {
		dirs = env.iters(24)
	}
	perDir := w.PerDir
	if perDir == 0 {
		perDir = env.iters(12)
	}
	fileSize := w.FileSize
	if fileSize == 0 {
		fileSize = 4096
	}
	ops := 0
	err := runRoot(env, "extract", func(p *sched.Proc) int {
		fs := env.fs(p)
		// tar -xzf: a decompressor child streams the archive into a pipe;
		// the parent (the unpacker) reads the stream and creates files.
		r, pw, err := fs.Pipe()
		if err != nil {
			return 1
		}
		totalBytes := dirs * perDir * fileSize
		producer, err := p.Spawn([]string{"gunzip"}, func(cp *sched.Proc) int {
			cfs := env.fs(cp)
			chunk := make([]byte, 32*1024)
			fillPattern(chunk, 42)
			remaining := totalBytes
			for remaining > 0 {
				n := len(chunk)
				if n > remaining {
					n = remaining
				}
				// Decompression is CPU work proportional to the output.
				cp.Compute(sim.Cycles(n / 1024 * decompressPerKiB))
				if _, err := cfs.Write(pw, chunk[:n]); err != nil {
					return 1
				}
				remaining -= n
			}
			cfs.Close(pw)
			cfs.Close(r)
			return 0
		}, false)
		if err != nil {
			return 1
		}
		// The unpacker no longer needs its copy of the write end.
		fs.Close(pw)

		buf := make([]byte, fileSize)
		for d := 0; d < dirs; d++ {
			dir := fmt.Sprintf("/src/dir%03d", d)
			if err := fs.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
				return 1
			}
			for f := 0; f < perDir; f++ {
				// Drain the archive stream for this file's contents.
				need := fileSize
				for need > 0 {
					n, err := fs.Read(r, buf[:need])
					if err != nil || n == 0 {
						return 1
					}
					need -= n
				}
				name := fmt.Sprintf("%s/file%04d.c", dir, f)
				fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if _, err := fs.Write(fd, buf); err != nil {
					return 1
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
			}
		}
		fs.Close(r)
		return p.Wait(producer)
	})
	ops = dirs * (1 + perDir*3)
	return ops, err
}

// Punzip models unzipping many archives in parallel (the paper's punzip
// benchmark: 20 copies of the manpages unpacked concurrently). Each worker
// decompresses into its own directory.
type Punzip struct {
	Copies  int
	PerCopy int
}

// Name implements Workload.
func (Punzip) Name() string { return "punzip" }

// Placement implements Workload (the paper uses random placement here).
func (Punzip) Placement() sched.Policy { return sched.PolicyRandom }

// Setup creates the top-level destination directory.
func (Punzip) Setup(env *Env) error {
	return runRoot(env, "punzip-setup", func(p *sched.Proc) int {
		if err := env.fs(p).Mkdir("/man", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return 0
	})
}

// Run implements Workload.
func (w Punzip) Run(env *Env) (int, error) {
	copies := w.Copies
	if copies == 0 {
		copies = env.workers()
	}
	perCopy := w.PerCopy
	if perCopy == 0 {
		perCopy = env.iters(120)
	}
	const pageSize = 2048
	err := runRoot(env, "punzip", func(p *sched.Proc) int {
		return fanOut(p, copies, func(wp *sched.Proc, idx int) int {
			fs := env.fs(wp)
			dir := fmt.Sprintf("/man/copy%02d", idx)
			if err := fs.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
				return 1
			}
			page := make([]byte, pageSize)
			fillPattern(page, uint64(idx)*7+1)
			for i := 0; i < perCopy; i++ {
				wp.Compute(sim.Cycles(pageSize / 1024 * decompressPerKiB))
				name := fmt.Sprintf("%s/man%04d.1", dir, i)
				fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if _, err := fs.Write(fd, page); err != nil {
					return 1
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
			}
			return 0
		})
	})
	return copies * perCopy * 3, err
}

// Mailbench models the sv6 mail-server benchmark: each worker delivers
// messages maildir-style (create in tmp/, write, fsync, rename into new/)
// and periodically scans its mailbox.
type Mailbench struct{ PerWorker int }

// Name implements Workload.
func (Mailbench) Name() string { return "mailbench" }

// Placement implements Workload.
func (Mailbench) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates the spool directories.
func (Mailbench) Setup(env *Env) error {
	n := env.workers()
	return runRoot(env, "mailbench-setup", func(p *sched.Proc) int {
		fs := env.fs(p)
		if err := fs.Mkdir("/spool", fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		for i := 0; i < n; i++ {
			user := fmt.Sprintf("/spool/user%02d", i)
			for _, dir := range []string{user, user + "/tmp", user + "/new"} {
				if err := fs.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
					return 1
				}
			}
		}
		return 0
	})
}

// Run implements Workload.
func (w Mailbench) Run(env *Env) (int, error) {
	per := w.PerWorker
	if per == 0 {
		per = env.iters(150)
	}
	n := env.workers()
	msg := make([]byte, 1500)
	fillPattern(msg, 99)
	err := runRoot(env, "mailbench", func(p *sched.Proc) int {
		return fanOut(p, n, func(wp *sched.Proc, idx int) int {
			fs := env.fs(wp)
			user := fmt.Sprintf("/spool/user%02d", idx)
			for i := 0; i < per; i++ {
				wp.Compute(deliverPerMsg)
				tmp := fmt.Sprintf("%s/tmp/msg%05d", user, i)
				fd, err := fs.Open(tmp, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if _, err := fs.Write(fd, msg); err != nil {
					return 1
				}
				if err := fs.Fsync(fd); err != nil {
					return 1
				}
				if err := fs.Close(fd); err != nil {
					return 1
				}
				final := fmt.Sprintf("%s/new/msg%05d", user, i)
				if err := fs.Rename(tmp, final); err != nil {
					return 1
				}
				// The reader side scans the mailbox every few deliveries.
				if (i+1)%16 == 0 {
					ents, err := fs.ReadDir(user + "/new")
					if err != nil {
						return 1
					}
					if len(ents) == 0 {
						return 1
					}
				}
			}
			return 0
		})
	})
	return n * per * 5, err
}

// FSStress issues a randomized mix of file system operations from every
// worker, each within its own subtree (borrowed from the Linux Test
// Project's fsstress, as in the paper). Directory distribution is left off:
// the workload repeatedly removes small directories, which is the case where
// distribution hurts (§5.4).
type FSStress struct{ PerWorker int }

// Name implements Workload.
func (FSStress) Name() string { return "fsstress" }

// Placement implements Workload.
func (FSStress) Placement() sched.Policy { return sched.PolicyRoundRobin }

// Setup creates one subtree per worker.
func (FSStress) Setup(env *Env) error {
	n := env.workers()
	return runRoot(env, "fsstress-setup", func(p *sched.Proc) int {
		fs := env.fs(p)
		if err := fs.Mkdir("/stress", fsapi.MkdirOpt{}); err != nil {
			return 1
		}
		for i := 0; i < n; i++ {
			if err := fs.Mkdir(fmt.Sprintf("/stress/w%02d", i), fsapi.MkdirOpt{}); err != nil {
				return 1
			}
		}
		return 0
	})
}

// Run implements Workload.
func (w FSStress) Run(env *Env) (int, error) {
	per := w.PerWorker
	if per == 0 {
		per = env.iters(300)
	}
	n := env.workers()
	err := runRoot(env, "fsstress", func(p *sched.Proc) int {
		return fanOut(p, n, func(wp *sched.Proc, idx int) int {
			fs := env.fs(wp)
			base := fmt.Sprintf("/stress/w%02d", idx)
			rng := newRand(uint64(idx)*1234567 + 1)
			var files, dirs []string
			buf := make([]byte, 512)
			fillPattern(buf, uint64(idx))
			for i := 0; i < per; i++ {
				switch rng.intn(10) {
				case 0, 1, 2: // create a file
					name := fmt.Sprintf("%s/f%05d", base, i)
					fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
					if err != nil {
						return 1
					}
					if _, err := fs.Write(fd, buf); err != nil {
						return 1
					}
					if err := fs.Close(fd); err != nil {
						return 1
					}
					files = append(files, name)
				case 3: // unlink a file
					if len(files) == 0 {
						continue
					}
					victim := rng.intn(len(files))
					if err := fs.Unlink(files[victim]); err != nil {
						return 1
					}
					files = append(files[:victim], files[victim+1:]...)
				case 4: // mkdir
					name := fmt.Sprintf("%s/d%05d", base, i)
					if err := fs.Mkdir(name, fsapi.MkdirOpt{}); err != nil {
						return 1
					}
					dirs = append(dirs, name)
				case 5: // rmdir (often non-empty parents: expect failures too)
					if len(dirs) == 0 {
						continue
					}
					victim := rng.intn(len(dirs))
					if err := fs.Rmdir(dirs[victim]); err == nil {
						dirs = append(dirs[:victim], dirs[victim+1:]...)
					} else if !fsapi.IsErrno(err, fsapi.ENOTEMPTY) {
						return 1
					}
				case 6: // rename
					if len(files) == 0 {
						continue
					}
					victim := rng.intn(len(files))
					newName := fmt.Sprintf("%s/r%05d", base, i)
					if err := fs.Rename(files[victim], newName); err != nil {
						return 1
					}
					files[victim] = newName
				case 7: // read a file back
					if len(files) == 0 {
						continue
					}
					fd, err := fs.Open(files[rng.intn(len(files))], fsapi.ORdOnly, 0)
					if err != nil {
						return 1
					}
					if _, err := fs.Read(fd, buf); err != nil {
						return 1
					}
					if err := fs.Close(fd); err != nil {
						return 1
					}
				case 8: // stat
					if len(files) == 0 {
						continue
					}
					if _, err := fs.Stat(files[rng.intn(len(files))]); err != nil {
						return 1
					}
				case 9: // readdir
					if _, err := fs.ReadDir(base); err != nil {
						return 1
					}
				}
			}
			return 0
		})
	})
	return n * per, err
}
