// Parallelbuild: a miniature `make -j` running on Hare (the scenario behind
// the paper's "build linux" benchmark).
//
// The coordinating make process creates a jobserver pipe whose descriptors
// are inherited by every compile job — a shared pipe across fork/exec is
// exactly the feature that prevents such builds from running on a plain
// network file system. Compile jobs are exec'd onto other cores through the
// scheduling servers, read their source file, burn CPU, and write an object
// file into a shared (distributed) directory; a final link step combines the
// objects.
//
// Run with: go run ./examples/parallelbuild
package main

import (
	"fmt"
	"log"

	hare "repro"
)

const (
	sourceFiles = 24
	sourceSize  = 4096
	jobs        = 6 // -j level: tokens in the jobserver pipe
)

func main() {
	cfg := hare.DefaultConfig()
	cfg.Cores = 8
	cfg.Servers = 8
	cfg.Placement = hare.PolicyRandom // the paper uses random placement for builds
	sys, err := hare.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	procs := sys.Procs()

	// Lay out the source tree.
	setup := procs.StartRoot(0, []string{"setup"}, func(p *hare.Proc) int {
		fs := p.FS
		for _, d := range []string{"/proj", "/proj/src", "/proj/obj"} {
			if err := fs.Mkdir(d, hare.MkdirOpt{Distributed: true}); err != nil {
				return 1
			}
		}
		src := make([]byte, sourceSize)
		for i := range src {
			src[i] = byte('a' + i%26)
		}
		for i := 0; i < sourceFiles; i++ {
			fd, err := fs.Open(fmt.Sprintf("/proj/src/unit%02d.c", i), hare.OCreate|hare.OWrOnly, hare.Mode644)
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
	if setup.Wait() != 0 {
		log.Fatal("source tree setup failed")
	}

	// make: jobserver + one exec'd compile job per translation unit.
	build := procs.StartRoot(0, []string{"make", "-j", fmt.Sprint(jobs)}, func(p *hare.Proc) int {
		fs := p.FS
		jsR, jsW, err := fs.Pipe()
		if err != nil {
			return 1
		}
		if _, err := fs.Write(jsW, make([]byte, jobs)); err != nil {
			return 1
		}

		var handles []*hare.Handle
		for i := 0; i < sourceFiles; i++ {
			unit := i
			h, err := p.Spawn([]string{"cc", fmt.Sprintf("unit%02d.c", unit)}, func(job *hare.Proc) int {
				return compile(job, unit, jsR, jsW)
			}, true)
			if err != nil {
				return 1
			}
			handles = append(handles, h)
		}
		if p.Wait(handles...) != 0 {
			return 1
		}

		// Link.
		out, err := fs.Open("/proj/app", hare.OCreate|hare.OWrOnly, hare.Mode755)
		if err != nil {
			return 1
		}
		buf := make([]byte, sourceSize/2)
		for i := 0; i < sourceFiles; i++ {
			ofd, err := fs.Open(fmt.Sprintf("/proj/obj/unit%02d.o", i), hare.ORdOnly, 0)
			if err != nil {
				return 1
			}
			if _, err := fs.Read(ofd, buf); err != nil {
				return 1
			}
			fs.Close(ofd)
			if _, err := fs.Write(out, buf); err != nil {
				return 1
			}
		}
		fs.Close(out)
		fs.Close(jsR)
		fs.Close(jsW)
		return 0
	})
	if build.Wait() != 0 {
		log.Fatal("build failed")
	}

	cli := sys.NewClient(0)
	st, err := cli.Stat("/proj/app")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built /proj/app (%d bytes) from %d units with %d jobserver tokens\n", st.Size, sourceFiles, jobs)
	fmt.Printf("virtual build time: %.3f ms across %d cores\n",
		sys.Seconds(procs.MaxEndTime())*1000, cfg.Cores)
}

// compile is one cc invocation: acquire a jobserver token, read the source,
// spin the CPU, emit the object file, release the token.
func compile(job *hare.Proc, unit int, jsR, jsW hare.FD) int {
	fs := job.FS
	tok := make([]byte, 1)
	if n, err := fs.Read(jsR, tok); err != nil || n != 1 {
		return 1
	}
	defer fs.Write(jsW, tok)

	src := fmt.Sprintf("/proj/src/unit%02d.c", unit)
	fd, err := fs.Open(src, hare.ORdOnly, 0)
	if err != nil {
		return 1
	}
	buf := make([]byte, sourceSize)
	if _, err := fs.Read(fd, buf); err != nil {
		return 1
	}
	fs.Close(fd)

	job.Compute(2_000_000) // ~0.8 ms of compiler work

	ofd, err := fs.Open(fmt.Sprintf("/proj/obj/unit%02d.o", unit), hare.OCreate|hare.OWrOnly, hare.Mode644)
	if err != nil {
		return 1
	}
	if _, err := fs.Write(ofd, buf[:sourceSize/2]); err != nil {
		return 1
	}
	fs.Close(ofd)
	return 0
}
