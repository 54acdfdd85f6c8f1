package workload

import (
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

// BuildLinux models a parallel kernel build driven by make (§5.2's largest
// benchmark). It exercises the POSIX features the paper calls out:
//
//   - make's jobserver is a pipe shared by every compile job (a shared file
//     descriptor inherited across fork/exec),
//   - compile jobs are exec'd onto other cores through the scheduling
//     servers (random placement, as the paper configures),
//   - each job stats headers, reads its source file, performs CPU-bound
//     compilation, and writes an object file into a shared directory,
//   - a final link step reads every object file and writes the kernel image.
type BuildLinux struct {
	Sources  int
	Dirs     int
	SrcSize  int
	Parallel int // max concurrent jobs (jobserver tokens); 0 = one per core
}

// Name implements Workload.
func (BuildLinux) Name() string { return "build linux" }

// Placement implements Workload (the paper uses random placement here).
func (BuildLinux) Placement() sched.Policy { return sched.PolicyRandom }

// Setup creates the source tree and the shared object directory.
func (w BuildLinux) Setup(env *Env) error {
	sources, dirs, srcSize := w.params(env)
	return runRoot(env, "build-setup", func(p *sched.Proc) int {
		fs := env.fs(p)
		for _, dir := range []string{"/kernel", "/kernel/obj", "/kernel/include"} {
			if err := fs.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
				return 1
			}
		}
		for d := 0; d < dirs; d++ {
			if err := fs.Mkdir(fmt.Sprintf("/kernel/src%02d", d), fsapi.MkdirOpt{Distributed: true}); err != nil {
				return 1
			}
		}
		// A handful of shared headers that every compile job stats.
		header := make([]byte, 2048)
		fillPattern(header, 7)
		for h := 0; h < 8; h++ {
			fd, err := fs.Open(fmt.Sprintf("/kernel/include/h%02d.h", h), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			if err != nil {
				return 1
			}
			if _, err := fs.Write(fd, header); err != nil {
				return 1
			}
			if err := fs.Close(fd); err != nil {
				return 1
			}
		}
		src := make([]byte, srcSize)
		fillPattern(src, 13)
		for i := 0; i < sources; i++ {
			name := fmt.Sprintf("/kernel/src%02d/unit%04d.c", i%dirs, i)
			fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			if err != nil {
				return 1
			}
			if _, err := fs.Write(fd, src); err != nil {
				return 1
			}
			if err := fs.Close(fd); err != nil {
				return 1
			}
		}
		return 0
	})
}

func (w BuildLinux) params(env *Env) (sources, dirs, srcSize int) {
	sources = w.Sources
	if sources == 0 {
		sources = env.iters(120)
	}
	dirs = w.Dirs
	if dirs == 0 {
		dirs = 8
	}
	if dirs > sources {
		dirs = sources
	}
	srcSize = w.SrcSize
	if srcSize == 0 {
		srcSize = 8192
	}
	return sources, dirs, srcSize
}

// Run implements Workload.
func (w BuildLinux) Run(env *Env) (int, error) {
	sources, dirs, srcSize := w.params(env)
	parallel := w.Parallel
	if parallel == 0 {
		parallel = env.workers()
	}
	err := runRoot(env, "make", func(p *sched.Proc) int {
		fs := env.fs(p)

		// make's jobserver: a pipe pre-loaded with one token per allowed
		// concurrent job. Every compile job inherits both ends.
		jsR, jsW, err := fs.Pipe()
		if err != nil {
			return 1
		}
		tokens := make([]byte, parallel)
		if _, err := fs.Write(jsW, tokens); err != nil {
			return 1
		}

		// make stats the whole tree to compute the dependency graph.
		if _, err := traverse(fs, "/kernel"); err != nil {
			return 1
		}

		handles := make([]*sched.Handle, 0, sources)
		for i := 0; i < sources; i++ {
			unit := i
			src := fmt.Sprintf("/kernel/src%02d/unit%04d.c", unit%dirs, unit)
			obj := fmt.Sprintf("/kernel/obj/unit%04d.o", unit)
			h, err := p.Spawn([]string{"cc", src}, func(job *sched.Proc) int {
				jfs := env.fs(job)
				// Acquire a jobserver token (blocks while the build is
				// at its concurrency limit).
				tok := make([]byte, 1)
				if n, err := jfs.Read(jsR, tok); err != nil || n != 1 {
					return 1
				}
				defer func() { _, _ = jfs.Write(jsW, tok) }()

				// The compiler stats the shared headers...
				for hdr := 0; hdr < 8; hdr++ {
					if _, err := jfs.Stat(fmt.Sprintf("/kernel/include/h%02d.h", hdr)); err != nil {
						return 1
					}
				}
				// ... reads the translation unit ...
				fd, err := jfs.Open(src, fsapi.ORdOnly, 0)
				if err != nil {
					return 1
				}
				buf := make([]byte, srcSize)
				if _, err := jfs.Read(fd, buf); err != nil {
					return 1
				}
				if err := jfs.Close(fd); err != nil {
					return 1
				}
				// ... compiles (CPU-bound) ...
				job.Compute(sim.Cycles(compilePerFile))
				// ... and writes the object file into the shared obj/
				// directory.
				ofd, err := jfs.Open(obj, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if _, err := jfs.Write(ofd, buf[:srcSize/2]); err != nil {
					return 1
				}
				if err := jfs.Close(ofd); err != nil {
					return 1
				}
				return 0
			}, true)
			if err != nil {
				return 1
			}
			handles = append(handles, h)
		}
		if status := p.Wait(handles...); status != 0 {
			return status
		}

		// Link: read every object file, write the kernel image.
		img, err := fs.Open("/kernel/vmlinux", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode755)
		if err != nil {
			return 1
		}
		objBuf := make([]byte, srcSize/2)
		for i := 0; i < sources; i++ {
			fd, err := fs.Open(fmt.Sprintf("/kernel/obj/unit%04d.o", i), fsapi.ORdOnly, 0)
			if err != nil {
				return 1
			}
			if _, err := fs.Read(fd, objBuf); err != nil {
				return 1
			}
			if err := fs.Close(fd); err != nil {
				return 1
			}
			p.Compute(sim.Cycles(linkPerObject))
			if _, err := fs.Write(img, objBuf); err != nil {
				return 1
			}
		}
		if err := fs.Close(img); err != nil {
			return 1
		}
		fs.Close(jsR)
		fs.Close(jsW)
		return 0
	})
	// Rough operation count: per compile job ~16 calls plus the link pass.
	return sources*16 + sources*3, err
}
