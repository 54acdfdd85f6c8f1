// Extract: an archive-extraction pipeline on Hare (the scenario behind the
// paper's `extract` benchmark): a decompressor process streams data through
// a pipe to an unpacker that creates the directory tree and files, then a
// second pass verifies the extracted contents and demonstrates that an
// unlinked-but-open file remains readable (the POSIX corner case networked
// file systems typically get wrong, §2.2).
//
// Run with: go run ./examples/extract
package main

import (
	"bytes"
	"fmt"
	"log"

	hare "repro"
)

const (
	dirs       = 6
	filesPer   = 8
	fileSize   = 2048
	archiveDir = "/archive"
)

func main() {
	cfg := hare.DefaultConfig()
	cfg.Cores = 4
	cfg.Servers = 4
	sys, err := hare.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	procs := sys.Procs()

	root := procs.StartRoot(0, []string{"tar", "-xzf", "archive.tgz"}, func(p *hare.Proc) int {
		fs := p.FS
		if err := fs.Mkdir(archiveDir, hare.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		// The decompressor child writes the archive stream into a pipe.
		r, w, err := fs.Pipe()
		if err != nil {
			return 1
		}
		gunzip, err := p.Spawn([]string{"gunzip"}, func(cp *hare.Proc) int {
			cfs := cp.FS
			chunk := payloadChunk()
			total := dirs * filesPer * fileSize
			for written := 0; written < total; {
				n := len(chunk)
				if written+n > total {
					n = total - written
				}
				cp.Compute(50_000) // decompression work per chunk
				if _, err := cfs.Write(w, chunk[:n]); err != nil {
					return 1
				}
				written += n
			}
			cfs.Close(w)
			cfs.Close(r)
			return 0
		}, false)
		if err != nil {
			return 1
		}
		fs.Close(w)

		// The unpacker reads the stream and lays out the tree.
		buf := make([]byte, fileSize)
		for d := 0; d < dirs; d++ {
			dir := fmt.Sprintf("%s/dir%02d", archiveDir, d)
			if err := fs.Mkdir(dir, hare.MkdirOpt{Distributed: true}); err != nil {
				return 1
			}
			for f := 0; f < filesPer; f++ {
				for need := 0; need < fileSize; {
					n, err := fs.Read(r, buf[need:])
					if err != nil || n == 0 {
						return 1
					}
					need += n
				}
				fd, err := fs.Open(fmt.Sprintf("%s/file%02d", dir, f), hare.OCreate|hare.OWrOnly, hare.Mode644)
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
		return p.Wait(gunzip)
	})
	if root.Wait() != 0 {
		log.Fatal("extraction failed")
	}

	// Verify from another core, then demonstrate the unlinked-open case.
	cli := sys.NewClient(2)
	want := payloadChunk()
	verified := 0
	for d := 0; d < dirs; d++ {
		for f := 0; f < filesPer; f++ {
			path := fmt.Sprintf("%s/dir%02d/file%02d", archiveDir, d, f)
			fd, err := cli.Open(path, hare.ORdOnly, 0)
			if err != nil {
				log.Fatal(err)
			}
			got := make([]byte, fileSize)
			if _, err := cli.Read(fd, got); err != nil {
				log.Fatal(err)
			}
			cli.Close(fd)
			if !bytes.Equal(got, want) {
				log.Fatalf("%s: extracted data corrupt", path)
			}
			verified++
		}
	}
	fmt.Printf("extracted and verified %d files in %.3f ms of virtual time\n",
		verified, sys.Seconds(procs.MaxEndTime())*1000)

	// A file that is unlinked while open stays readable until closed.
	victim := archiveDir + "/dir00/file00"
	fd, _ := cli.Open(victim, hare.ORdOnly, 0)
	if err := cli.Unlink(victim); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, err := cli.Read(fd, buf); err != nil || n == 0 {
		log.Fatalf("unlinked file unreadable: n=%d err=%v", n, err)
	}
	cli.Close(fd)
	fmt.Println("unlinked-but-open file remained readable (POSIX semantics preserved)")
}

// payloadChunk builds the deterministic archive contents: the stream is a
// repetition of this block, and every extracted file holds exactly one copy.
func payloadChunk() []byte {
	chunk := make([]byte, fileSize)
	for i := range chunk {
		chunk[i] = byte('A' + (i*7)%26)
	}
	return chunk
}
