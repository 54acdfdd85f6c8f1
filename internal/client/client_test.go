package client_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// newSystem builds a Hare deployment with the given technique set so the
// client library's alternate code paths (no directory cache, no direct
// access, no broadcast, no distribution, no affinity) are exercised for
// functional correctness, not just performance.
func newSystem(t *testing.T, techniques core.Techniques) *core.System {
	t.Helper()
	return newSystemWith(t, techniques, core.Durability{})
}

// newSystemWith is newSystem with the given durability settings.
func newSystemWith(t *testing.T, techniques core.Techniques, d core.Durability) *core.System {
	t.Helper()
	sys, err := core.New(core.Config{
		Cores:            4,
		Servers:          4,
		Timeshare:        true,
		Techniques:       techniques,
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 8 << 20,
		Durability:       d,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

// exerciseFS runs a representative POSIX sequence and checks the results; it
// is run once per technique configuration.
func exerciseFS(t *testing.T, sys *core.System) {
	t.Helper()
	cli := sys.NewClient(0)
	other := sys.NewClient(2)

	if err := cli.Mkdir("/app", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Mkdir("/app/logs", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}

	// Write a multi-block file, read it back from another core.
	payload := bytes.Repeat([]byte("technique-test "), 600)
	fd, err := cli.Open("/app/data.bin", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}
	rfd, err := other.Open("/app/data.bin", fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := other.Read(rfd, got); err != nil {
		t.Fatal(err)
	}
	other.Close(rfd)
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-core read returned wrong data")
	}

	// Create several files, list, rename, remove.
	for i := 0; i < 12; i++ {
		fd, err := cli.Open(fmt.Sprintf("/app/f%02d", i), fsapi.OCreate, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		cli.Close(fd)
	}
	ents, err := other.ReadDir("/app")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 14 { // 12 files + data.bin + logs
		t.Fatalf("readdir found %d entries", len(ents))
	}
	if err := cli.Rename("/app/f00", "/app/logs/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Stat("/app/logs/renamed"); err != nil {
		t.Fatalf("renamed file not visible from other core: %v", err)
	}
	for i := 1; i < 12; i++ {
		if err := other.Unlink(fmt.Sprintf("/app/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Unlink("/app/logs/renamed"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unlink("/app/data.bin"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Rmdir("/app/logs"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Rmdir("/app"); err != nil {
		t.Fatal(err)
	}
}

func TestClientCorrectUnderEveryTechniqueConfiguration(t *testing.T) {
	configs := map[string]func(*core.Techniques){
		"all-enabled":     func(*core.Techniques) {},
		"no-distribution": func(tq *core.Techniques) { tq.DirectoryDistribution = false },
		"no-broadcast":    func(tq *core.Techniques) { tq.DirectoryBroadcast = false },
		"no-direct":       func(tq *core.Techniques) { tq.DirectAccess = false },
		"no-dircache":     func(tq *core.Techniques) { tq.DirectoryCache = false },
		"no-affinity":     func(tq *core.Techniques) { tq.CreationAffinity = false },
	}
	for name, disable := range configs {
		name, disable := name, disable
		t.Run(name, func(t *testing.T) {
			tq := core.AllTechniques()
			disable(&tq)
			exerciseFS(t, newSystem(t, tq))
		})
	}
}

func TestDirectoryCacheInvalidationAcrossClients(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	a := sys.NewClient(0)
	b := sys.NewClient(1)

	if err := a.Mkdir("/shared", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	fd, err := a.Open("/shared/item", fsapi.OCreate, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	a.Close(fd)

	// b caches the lookup...
	if _, err := b.Stat("/shared/item"); err != nil {
		t.Fatal(err)
	}
	// ... a renames the entry away; the server sends b an invalidation.
	if err := a.Rename("/shared/item", "/shared/moved"); err != nil {
		t.Fatal(err)
	}
	// b must observe the change: the stale cached entry is dropped when the
	// invalidation queue is drained on the next lookup.
	if _, err := b.Stat("/shared/item"); !fsapi.IsErrno(err, fsapi.ENOENT) {
		t.Fatalf("stale name still resolves on b: %v", err)
	}
	if _, err := b.Stat("/shared/moved"); err != nil {
		t.Fatalf("new name not visible on b: %v", err)
	}
	if b.Stats().Invalidations == 0 {
		t.Fatal("client b processed no invalidations")
	}
}

func TestUnlinkCallsBackEveryCachingClientButItsOwn(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	a := sys.NewClient(0)
	b := sys.NewClient(1)
	if err := a.Mkdir("/shared", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	fd, err := a.Open("/shared/item", fsapi.OCreate, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	a.Close(fd)
	// Both cache the name; a removes it.
	for _, c := range []fsapi.Client{a, b} {
		if _, err := c.Stat("/shared/item"); err != nil {
			t.Fatal(err)
		}
	}
	callbacks := func() (n uint64) {
		for _, st := range sys.ServerStats() {
			n += st.Invalidations
		}
		return n
	}
	before := callbacks()
	if err := a.Unlink("/shared/item"); err != nil {
		t.Fatal(err)
	}
	if n := callbacks() - before; n != 1 {
		t.Fatalf("the unlink sent %d callbacks, want 1 (to the other client)", n)
	}
	// Neither trusts its cache afterwards: a dropped the entry itself, b is
	// told to when it next drains its callbacks.
	for name, c := range map[string]*client.Client{"a": a, "b": b} {
		before := c.Stats().RPCs
		if _, err := c.Stat("/shared/item"); !fsapi.IsErrno(err, fsapi.ENOENT) {
			t.Fatalf("removed name still resolves on %s: %v", name, err)
		}
		if c.Stats().RPCs == before {
			t.Fatalf("%s answered from its cache", name)
		}
	}
	if a.Stats().Invalidations != 0 || b.Stats().Invalidations != 1 {
		t.Fatalf("a processed %d invalidations and b %d, want 0 and 1", a.Stats().Invalidations, b.Stats().Invalidations)
	}
}

func TestVersionSkipSurvivesSyncAndFsync(t *testing.T) {
	// Sync and Fsync bump the inode version via SET_SIZE; the descriptor's
	// consistency window must absorb those bumps so the eventual close still
	// records a version and the reopen skips invalidation.
	sys := newSystem(t, core.AllTechniques())
	c := sys.NewClient(0)
	payload := bytes.Repeat([]byte{0x5A}, 9000)

	for _, syncer := range []struct {
		name string
		call func(fd fsapi.FD) error
	}{
		{"sync", func(fsapi.FD) error { return c.Sync() }},
		{"fsync", func(fd fsapi.FD) error { return c.Fsync(fd) }},
	} {
		name := "/syncskip-" + syncer.name
		fd, err := c.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(fd, payload); err != nil {
			t.Fatal(err)
		}
		if err := syncer.call(fd); err != nil {
			t.Fatalf("%s: %v", syncer.name, err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
		before := c.Stats().VersionSkips
		rfd, err := c.Open(name, fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Close(rfd)
		if c.Stats().VersionSkips == before {
			t.Fatalf("reopen after %s+close did not take the version-skip path", syncer.name)
		}
	}
}

// TestReopenBehindAPendingClose: a reopen that finds the file's clean close
// still pending sends it in front of its OPEN_INODE and takes its answer
// first, so the reopen skips invalidation exactly when it did while the close
// went on its own — whenever nobody else wrote the file meanwhile — and reads
// the same bytes. The reference is the same calls with a Sync before each
// reopen, which sends the pending close on its own.
func TestReopenBehindAPendingClose(t *testing.T) {
	run := func(syncFirst bool) (skips, sent []uint64, reads []string) {
		sys := newSystem(t, core.AllTechniques())
		c, other := sys.NewClient(0), sys.NewClient(1)
		write := func(w fsapi.Client, data string) {
			fd, err := w.Open("/f", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(fd, []byte(data)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
		reopen := func() {
			if syncFirst {
				if err := c.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			before := c.Stats().RPCs
			fd, err := c.Open("/f", fsapi.ORdOnly, 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 16)
			n, err := c.Read(fd, buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(fd); err != nil {
				t.Fatal(err)
			}
			skips, sent, reads = append(skips, c.Stats().VersionSkips), append(sent, c.Stats().RPCs-before), append(reads, string(buf[:n]))
		}
		write(c, "first")
		reopen() // behind its own dirty close, which went at once
		reopen() // behind the clean close of the reopen before
		write(other, "second")
		reopen() // another client wrote meanwhile: the pending close's answer shows it
		reopen()
		return skips, sent, reads
	}
	skips, sent, reads := run(false)
	if want := []uint64{1, 2, 2, 3}; !reflect.DeepEqual(skips, want) {
		t.Errorf("version skips after each reopen %v, want %v", skips, want)
	}
	if want := []uint64{1, 1, 1, 1}; !reflect.DeepEqual(sent, want) {
		t.Errorf("request messages per open+read+close %v, want %v: OPEN_INODE, led by the close before", sent, want)
	}
	if want := []string{"first", "first", "second", "second"}; !reflect.DeepEqual(reads, want) {
		t.Errorf("reopens read %q, want %q", reads, want)
	}
	refSkips, refSent, refReads := run(true)
	if !reflect.DeepEqual(skips, refSkips) || !reflect.DeepEqual(reads, refReads) {
		t.Errorf("with a Sync before each reopen: skips %v and reads %q; behind the pending close %v and %q", refSkips, refReads, skips, reads)
	}
	if want := []uint64{1, 1, 1, 1}; !reflect.DeepEqual(refSent, want) {
		t.Errorf("with a Sync before each reopen: request messages per open+read+close %v, want %v: OPEN_INODE alone", refSent, want)
	}
}

func TestNoDirectAccessStillSeesServerSideSizes(t *testing.T) {
	tq := core.AllTechniques()
	tq.DirectAccess = false
	sys := newSystem(t, tq)
	cli := sys.NewClient(0)
	fd, err := cli.Open("/f", fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(fd, []byte("no direct access")); err != nil {
		t.Fatal(err)
	}
	// Without direct access the write already went through the server, so
	// another client sees the size immediately even before close.
	other := sys.NewClient(1)
	st, err := other.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len("no direct access")) {
		t.Fatalf("size = %d", st.Size)
	}
	cli.Close(fd)
}

func TestClientStatsCounters(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/s", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	// Two stats of the same path: the second lookup hits the client cache.
	if _, err := cli.Stat("/s"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/s"); err != nil {
		t.Fatal(err)
	}
	st := cli.Stats()
	if st.RPCs == 0 {
		t.Fatal("no RPCs counted")
	}
	if st.DirCacheHits == 0 {
		t.Fatal("directory cache hit not counted")
	}
	if cli.Options() != (sys.NewClient(1)).Options() {
		t.Fatal("options should be uniform across clients")
	}
	if cli.ID() == sys.NewClient(1).ID() {
		t.Fatal("client ids must be unique")
	}
}

func TestExecTransfersWorkingDirectory(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	procs := sys.Procs()
	h := procs.StartRoot(0, []string{"root"}, func(p *sched.Proc) int {
		fs := p.FS
		if err := fs.Mkdir("/wd", fsapi.MkdirOpt{}); err != nil {
			return 1
		}
		if err := fs.Chdir("/wd"); err != nil {
			return 1
		}
		child, err := p.Spawn([]string{"child"}, func(cp *sched.Proc) int {
			// The exec'd process inherits the working directory, so a
			// relative create lands under /wd.
			fd, err := cp.FS.Open("made-here", fsapi.OCreate, fsapi.Mode644)
			if err != nil {
				return 1
			}
			cp.FS.Close(fd)
			return 0
		}, true)
		if err != nil {
			return 1
		}
		if child.Wait() != 0 {
			return 1
		}
		if _, err := fs.Stat("/wd/made-here"); err != nil {
			return 1
		}
		return 0
	})
	if h.Wait() != 0 {
		t.Fatal("exec did not preserve the working directory")
	}
}

func TestBatchedUnlinkSavesMessages(t *testing.T) {
	// Create, close and unlink, twenty times: four requests a cycle —
	// CREATE, CLOSE_INODE, RM_MAP, UNLINK_INODE — that would be four
	// messages sent one by one. The clean close waits for the unlink's
	// message and leads its RM_MAP + UNLINK_INODE chain, so a cycle costs
	// the create and one batch of three.
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/u", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	before := cli.Stats()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/u/f%03d", i)
		fd, err := cli.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := cli.Unlink(name); err != nil {
			t.Fatal(err)
		}
	}
	after := cli.Stats()
	if sent, batched := after.RPCs-before.RPCs, after.BatchedOps-before.BatchedOps; sent != 2*n || batched != 3*n {
		t.Fatalf("%d create/close/unlink cycles: %d request messages, %d batched sub-ops; want %d, %d (one by one: %d messages)",
			n, sent, batched, 2*n, 3*n, 4*n)
	}
}

func TestUnlinkIgnoresAStaleCache(t *testing.T) {
	// Client b caches a lookup, client a rename-replaces the entry with a
	// different inode, and — before b drains the invalidation — b unlinks
	// the name. What b has cached must not matter: the inode that loses its
	// link is the one RM_MAP found in the entry, whatever b believed.
	sys := newSystem(t, core.AllTechniques())
	a := sys.NewClient(0)
	b := sys.NewClient(1)

	if err := a.Mkdir("/sw", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	mk := func(name, content string) {
		fd, err := a.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(fd, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	mk("/sw/victim", "old inode")
	mk("/sw/other", "surviving inode")

	// b caches /sw/victim's (soon stale) inode.
	if _, err := b.Stat("/sw/victim"); err != nil {
		t.Fatal(err)
	}
	// a replaces the entry: /sw/victim now names other's inode.
	if err := a.Rename("/sw/other", "/sw/victim"); err != nil {
		t.Fatal(err)
	}
	// b unlinks with a stale cache: the name must disappear and exactly one
	// link must drop.
	if err := b.Unlink("/sw/victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("/sw/victim"); !fsapi.IsErrno(err, fsapi.ENOENT) {
		t.Fatalf("unlinked name still resolves: %v", err)
	}
	ents, err := a.ReadDir("/sw")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("directory should be empty, has %d entries", len(ents))
	}
}

func TestReadaheadOnServerMediatedReads(t *testing.T) {
	tq := core.AllTechniques()
	tq.DirectAccess = false
	sys := newSystem(t, tq)
	cli := sys.NewClient(0)

	payload := bytes.Repeat([]byte("readahead-chunk "), 2048) // 32 KiB
	fd, err := cli.Open("/ra.bin", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}

	rfd, err := cli.Open("/ra.bin", fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 4096)
	for {
		n, err := cli.Read(rfd, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if err := cli.Close(rfd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("sequential read with readahead returned wrong data")
	}
	if cli.Stats().Readaheads == 0 {
		t.Fatal("sequential server-mediated read issued no readaheads")
	}

	// A write between reads must invalidate the speculative chunk.
	wfd, err := cli.Open("/ra.bin", fsapi.ORdWr, 0)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, 4096)
	if _, err := cli.Read(wfd, half); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte("X"), 512)
	if _, err := cli.Pwrite(wfd, patch, 4096); err != nil {
		t.Fatal(err)
	}
	after := make([]byte, 512)
	if _, err := cli.Read(wfd, after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, patch) {
		t.Fatal("read after overlapping write returned stale readahead data")
	}
	cli.Close(wfd)
}

func TestSyncFlushesAllDirtyFiles(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	other := sys.NewClient(1)

	var fds []fsapi.FD
	for i := 0; i < 6; i++ {
		fd, err := cli.Open(fmt.Sprintf("/sync%02d", i), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(fd, bytes.Repeat([]byte{byte(i + 1)}, 1000+100*i)); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	if err := cli.Sync(); err != nil {
		t.Fatal(err)
	}
	// The size updates reached every touched server: another client
	// observes the sizes without any close having happened.
	for i := range fds {
		st, err := other.Stat(fmt.Sprintf("/sync%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != int64(1000+100*i) {
			t.Fatalf("file %d size = %d after Sync", i, st.Size)
		}
	}
	for _, fd := range fds {
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseAllFlushesEveryDescriptor(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	for i := 0; i < 5; i++ {
		fd, err := cli.Open(fmt.Sprintf("/ca%02d", i), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(fd, bytes.Repeat([]byte{0xAB}, 777)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := cli.Dup(fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	cli.CloseAll()
	if n := len(cli.OpenFDs()); n != 0 {
		t.Fatalf("%d descriptors survive CloseAll", n)
	}
	// The coalesced close carried each file's size to its server.
	other := sys.NewClient(1)
	for i := 0; i < 5; i++ {
		st, err := other.Stat(fmt.Sprintf("/ca%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != 777 {
			t.Fatalf("file %d size = %d after CloseAll", i, st.Size)
		}
	}
}

func TestReadaheadInvalidatedAcrossDescriptors(t *testing.T) {
	// A readahead issued through one descriptor must not survive a write
	// through a *different* descriptor of the same file: same-process
	// read-after-write holds regardless of which fd did the writing.
	tq := core.AllTechniques()
	tq.DirectAccess = false
	sys := newSystem(t, tq)
	cli := sys.NewClient(0)

	payload := bytes.Repeat([]byte("Z"), 16384)
	fd, err := cli.Open("/x.bin", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}

	rfd, err := cli.Open("/x.bin", fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	wfd, err := cli.Open("/x.bin", fsapi.OWrOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential read on rfd issues a readahead for [4096, 8192).
	buf := make([]byte, 4096)
	if _, err := cli.Read(rfd, buf); err != nil {
		t.Fatal(err)
	}
	if cli.Stats().Readaheads == 0 {
		t.Fatal("no readahead in flight; test setup is wrong")
	}
	// Write through the other descriptor into the speculative range.
	patch := bytes.Repeat([]byte("w"), 1024)
	if _, err := cli.Pwrite(wfd, patch, 4096); err != nil {
		t.Fatal(err)
	}
	// The next read on rfd covers the patched range and must see the write.
	if _, err := cli.Read(rfd, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:1024], patch) {
		t.Fatal("read served stale readahead data written before the cross-descriptor write")
	}
	cli.Close(rfd)
	cli.Close(wfd)
}

// TestVersionCacheHoldsOnlyFilesWithBlocks: the version cache keeps an entry
// only while a file has blocks (DESIGN.md §8) — a client that creates and
// closes empty files keeps none, and one whose file was truncated to nothing
// drops its entry — and a reopen after another client wrote still
// invalidates and reads what that client wrote.
func TestVersionCacheHoldsOnlyFilesWithBlocks(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	c, other := sys.NewClient(0), sys.NewClient(1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(w *client.Client, name, data string, flags int) {
		t.Helper()
		fd, err := w.Open(name, fsapi.OCreate|fsapi.OWrOnly|flags, fsapi.Mode644)
		must(err)
		if data != "" {
			_, err = w.Write(fd, []byte(data))
			must(err)
		}
		must(w.Close(fd))
	}
	read := func(name string) string {
		t.Helper()
		fd, err := c.Open(name, fsapi.ORdOnly, 0)
		must(err)
		buf := make([]byte, 64)
		n, err := c.Read(fd, buf)
		must(err)
		must(c.Close(fd))
		return string(buf[:n])
	}
	entries := func(want int, when string) {
		t.Helper()
		must(c.Sync()) // a clean close settles the entry when it is answered
		if got := c.VersionEntries(); got != want {
			t.Fatalf("%s: %d version entries, want %d", when, got, want)
		}
	}

	for i := 0; i < 100; i++ {
		write(c, fmt.Sprintf("/empty-%03d", i), "", 0)
	}
	entries(0, "after 100 empty files were created and closed")
	read("/empty-007")
	entries(0, "after an empty file was reopened")

	write(c, "/f", "first", 0)
	entries(1, "after a file was written")
	skips := c.Stats().VersionSkips
	if got := read("/f"); got != "first" || c.Stats().VersionSkips != skips+1 {
		t.Fatalf("reopen read %q with %d new skips, want \"first\" and one", got, c.Stats().VersionSkips-skips)
	}
	write(other, "/f", "SECOND", 0)
	skips = c.Stats().VersionSkips
	if got := read("/f"); got != "SECOND" || c.Stats().VersionSkips != skips {
		t.Fatalf("reopen after another client wrote read %q with %d skips, want \"SECOND\" and none", got, c.Stats().VersionSkips-skips)
	}

	write(c, "/f", "", fsapi.OTrunc)
	entries(0, "after the file was truncated to nothing")
	write(other, "/f", "third", 0)
	skips = c.Stats().VersionSkips
	if got := read("/f"); got != "third" || c.Stats().VersionSkips != skips {
		t.Fatalf("reopen after a truncate and another client's write read %q with %d skips, want \"third\" and none", got, c.Stats().VersionSkips-skips)
	}
	entries(1, "after the file was read back with its new block")
	write(c, "/empty-007", "", 0)
	entries(1, "after an empty file was reopened for writing and closed unwritten")
}
