package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

// newDurableSystem builds and starts a deployment with write-ahead logging.
func newDurableSystem(t *testing.T, cores, servers int, d Durability, tech Techniques) *System {
	t.Helper()
	d.Enabled = true
	cfg := Config{
		Cores:            cores,
		Servers:          servers,
		Timeshare:        true,
		Techniques:       tech,
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 8 << 20,
		BlockSize:        4096,
		Durability:       d,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

// namespaceDump walks the tree and returns a deterministic textual fingerprint
// of every path, type, size, and file content.
func namespaceDump(t *testing.T, fs fsapi.Client, root string) string {
	t.Helper()
	var sb strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, ent := range ents {
			path := dir + "/" + ent.Name
			if dir == "/" {
				path = "/" + ent.Name
			}
			st, err := fs.Stat(path)
			if err != nil {
				t.Fatalf("stat %s: %v", path, err)
			}
			fmt.Fprintf(&sb, "%s type=%d size=%d nlink=%d", path, st.Type, st.Size, st.Nlink)
			if st.Type == fsapi.TypeRegular {
				fd, err := fs.Open(path, fsapi.ORdOnly, 0)
				if err != nil {
					t.Fatalf("open %s: %v", path, err)
				}
				buf := make([]byte, st.Size)
				n, err := fs.Read(fd, buf)
				if err != nil {
					t.Fatalf("read %s: %v", path, err)
				}
				fs.Close(fd)
				fmt.Fprintf(&sb, " data=%x", buf[:n])
			}
			sb.WriteString("\n")
			if st.Type == fsapi.TypeDir {
				walk(path)
			}
		}
	}
	walk(root)
	return sb.String()
}

func writeFile(t *testing.T, fs fsapi.Client, path string, data []byte) {
	t.Helper()
	fd, err := fs.Open(path, fsapi.OCreate|fsapi.OWrOnly|fsapi.OTrunc, fsapi.Mode644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := fs.Write(fd, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, fs fsapi.Client, path string) []byte {
	t.Helper()
	fd, err := fs.Open(path, fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	st, err := fs.Fstat(fd)
	if err != nil {
		t.Fatalf("fstat %s: %v", path, err)
	}
	buf := make([]byte, st.Size)
	n, err := fs.Read(fd, buf)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	fs.Close(fd)
	return buf[:n]
}

// populate builds a small mixed namespace: directories, multi-block files,
// a rename, an unlink, and a removed directory.
func populate(t *testing.T, fs fsapi.Client) {
	t.Helper()
	if err := fs.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d/sub", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		writeFile(t, fs, fmt.Sprintf("/d/f%02d", i), bytes.Repeat([]byte{byte('a' + i)}, 1000*(i+1)))
	}
	writeFile(t, fs, "/d/sub/deep", []byte("deep value"))
	if err := fs.Rename("/d/f00", "/d/renamed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/d/f01"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/gone", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/gone"); err != nil {
		t.Fatal(err)
	}
}

func crashRecoverAll(t *testing.T, sys *System, loseMemory bool) {
	t.Helper()
	for i := 0; i < sys.NumServers(); i++ {
		var err error
		if loseMemory {
			err = sys.CrashLosingMemory(i)
		} else {
			err = sys.Crash(i)
		}
		if err != nil {
			t.Fatalf("crash server %d: %v", i, err)
		}
		if !sys.Crashed(i) {
			t.Fatalf("server %d not marked crashed", i)
		}
		if _, err := sys.Recover(i); err != nil {
			t.Fatalf("recover server %d: %v", i, err)
		}
	}
}

func TestCrashRecoverPreservesNamespace(t *testing.T) {
	sys := newDurableSystem(t, 4, 4, Durability{}, AllTechniques())
	cli := sys.NewClient(0)
	populate(t, cli)
	before := namespaceDump(t, cli, "/")

	crashRecoverAll(t, sys, false)

	// Scan through a fresh client (no warm caches) on another core.
	after := namespaceDump(t, sys.NewClient(2), "/")
	if before != after {
		t.Fatalf("namespace diverged after recovery:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// The file system stays writable after recovery.
	writeFile(t, cli, "/d/post-crash", []byte("written after recovery"))
	if got := readFile(t, cli, "/d/post-crash"); string(got) != "written after recovery" {
		t.Fatalf("post-recovery write read back %q", got)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	cli := sys.NewClient(0)
	populate(t, cli)

	crashRecoverAll(t, sys, false)
	first := namespaceDump(t, sys.NewClient(1), "/")

	// Recovering again — with no mutations in between — must be a no-op.
	crashRecoverAll(t, sys, false)
	second := namespaceDump(t, sys.NewClient(1), "/")
	if first != second {
		t.Fatalf("second recovery changed state:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

func TestCheckpointPlusLogTailRecovery(t *testing.T) {
	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	cli := sys.NewClient(0)
	populate(t, cli)

	if err := sys.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	for _, st := range sys.WalStats() {
		if st.Checkpoints != 1 {
			t.Fatalf("expected one checkpoint per server, got %+v", st)
		}
	}

	// Mutations after the checkpoint live only in the log tail.
	writeFile(t, cli, "/d/tail", []byte("after checkpoint"))
	if err := cli.Rename("/d/renamed", "/d/renamed2"); err != nil {
		t.Fatal(err)
	}
	before := namespaceDump(t, cli, "/")

	crashRecoverAll(t, sys, false)
	after := namespaceDump(t, sys.NewClient(1), "/")
	if before != after {
		t.Fatalf("checkpoint+tail recovery diverged:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestAutomaticCheckpointTruncatesLog(t *testing.T) {
	sys := newDurableSystem(t, 2, 2, Durability{CheckpointEvery: 10}, AllTechniques())
	cli := sys.NewClient(0)
	for i := 0; i < 40; i++ {
		writeFile(t, cli, fmt.Sprintf("/f%03d", i), []byte("x"))
	}
	var ckpts uint64
	for _, st := range sys.WalStats() {
		ckpts += st.Checkpoints
	}
	if ckpts == 0 {
		t.Fatal("no automatic checkpoint was taken")
	}
	before := namespaceDump(t, cli, "/")
	crashRecoverAll(t, sys, false)
	if after := namespaceDump(t, sys.NewClient(1), "/"); before != after {
		t.Fatal("recovery after automatic checkpoints diverged")
	}
}

func TestCrashLosingMemoryRestoresDataFromCheckpoint(t *testing.T) {
	// Direct-access clients write the buffer cache without the server
	// seeing the bytes; the checkpoint's block snapshots make that data
	// durable. After losing the whole memory domain, contents come back
	// from the checkpoint.
	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	cli := sys.NewClient(0)
	payload := bytes.Repeat([]byte("snapshot"), 2048) // multi-block
	writeFile(t, cli, "/big", payload)
	if err := sys.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	crashRecoverAll(t, sys, true)
	if got := readFile(t, sys.NewClient(1), "/big"); !bytes.Equal(got, payload) {
		t.Fatalf("content lost after memory-loss recovery: %d bytes, want %d", len(got), len(payload))
	}
}

func TestCrashLosingMemoryReplaysServerPathWrites(t *testing.T) {
	// With direct access off, every write goes through a server and is
	// logged as a RecWrite; even without any checkpoint, replay rebuilds
	// file contents into the wiped partition.
	tech := AllTechniques()
	tech.DirectAccess = false
	sys := newDurableSystem(t, 2, 2, Durability{}, tech)
	cli := sys.NewClient(0)
	payload := bytes.Repeat([]byte("logged!!"), 1500)
	writeFile(t, cli, "/wal-data", payload)

	crashRecoverAll(t, sys, true)
	if got := readFile(t, sys.NewClient(1), "/wal-data"); !bytes.Equal(got, payload) {
		t.Fatalf("server-path write not replayed: %d bytes, want %d", len(got), len(payload))
	}
}

func TestCrashedServerStallsClientsUntilRecovery(t *testing.T) {
	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	cli := sys.NewClient(0)
	writeFile(t, cli, "/probe", []byte("v"))

	// Server 0 stores the root inode; stat("/") must reach it.
	if err := sys.Crash(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sys.NewClient(1).Stat("/")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stat on crashed server returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
		// Still blocked: the request waits in the crashed server's inbox.
	}
	if _, err := sys.Recover(0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stat after recovery: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stat still blocked after recovery")
	}
}

func TestFaultAPIValidation(t *testing.T) {
	// Durability off: the fault-injection surface refuses to run.
	plain := newTestSystem(t, 2, 2)
	if err := plain.Crash(0); err == nil {
		t.Error("Crash accepted with durability disabled")
	}
	if err := plain.Checkpoint(0); err == nil {
		t.Error("Checkpoint accepted with durability disabled")
	}

	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	if err := sys.Crash(99); err == nil {
		t.Error("crash of unknown server accepted")
	}
	if _, err := sys.Recover(0); err == nil {
		t.Error("recover of a running server accepted")
	}
	if err := sys.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(0); err == nil {
		t.Error("checkpoint of a crashed server accepted")
	}
	// Double crash is a no-op, not a hang.
	if err := sys.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(0); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryFlushesSurvivingClientCaches(t *testing.T) {
	// A recovered server has lost its invalidation-tracking sets, so it
	// broadcasts a directory-cache flush; a client that cached a lookup
	// before the crash must observe a post-recovery rename rather than
	// reading through its stale cache entry.
	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	a := sys.NewClient(0)
	b := sys.NewClient(1)

	writeFile(t, a, "/f", []byte("old"))
	// Client a caches the lookup for /f (opening resolves and caches it).
	if got := readFile(t, a, "/f"); string(got) != "old" {
		t.Fatalf("pre-crash read: %q", got)
	}

	crashRecoverAll(t, sys, false)

	// Another client moves the old file away and creates a new /f.
	if err := b.Rename("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, b, "/f", []byte("new"))

	// Without the recovery cache flush, a's stale cache would resolve /f
	// to the renamed inode and read "old".
	if got := readFile(t, a, "/f"); string(got) != "new" {
		t.Fatalf("stale directory cache after recovery: read %q, want %q", got, "new")
	}
}

func TestStaleSharedFdRejectedAfterRecovery(t *testing.T) {
	// Shared-descriptor ids embed the server's incarnation: a descriptor
	// that outlived a crash must fail with EBADF, never alias a
	// descriptor issued after recovery.
	sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
	parent := sys.NewClient(0)

	fd, err := parent.Open("/shared", fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	childFS, err := parent.CloneForFork(1)
	if err != nil {
		t.Fatal(err)
	}
	child := childFS.(fsapi.Client)
	if _, err := parent.Write(fd, []byte("through the server")); err != nil {
		t.Fatal(err)
	}

	crashRecoverAll(t, sys, false)

	// The server-side descriptor died with the server.
	if _, err := parent.Write(fd, []byte("stale")); !fsapi.IsErrno(err, fsapi.EBADF) {
		t.Fatalf("write on stale shared fd: %v, want EBADF", err)
	}
	if _, err := child.Read(fd, make([]byte, 4)); !fsapi.IsErrno(err, fsapi.EBADF) {
		t.Fatalf("read on stale shared fd: %v, want EBADF", err)
	}
}

func TestFaultAPIRequiresStart(t *testing.T) {
	cfg := Config{
		Cores: 2, Servers: 2, Timeshare: true,
		Techniques: AllTechniques(), Placement: sched.PolicyRoundRobin,
		Durability: Durability{Enabled: true},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Crashing before Start must error, not deadlock on a loop that was
	// never launched.
	if err := sys.Crash(0); err == nil {
		t.Fatal("Crash accepted on a never-started system")
	}
}

func TestFileBackedDurability(t *testing.T) {
	// Durability.Dir stores each server's log and checkpoint as real files.
	dir := t.TempDir()
	sys := newDurableSystem(t, 2, 2, Durability{Dir: dir}, AllTechniques())
	cli := sys.NewClient(0)
	populate(t, cli)
	if err := sys.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, cli, "/d/tail", []byte("file-backed"))
	before := namespaceDump(t, cli, "/")
	crashRecoverAll(t, sys, false)
	if after := namespaceDump(t, sys.NewClient(1), "/"); before != after {
		t.Fatal("file-backed recovery diverged")
	}
}

// TestSerialClientPaysOneFlushPerDurableRPC pins the commit rule end to end:
// a durable request's reply waits for one flush, which starts the moment the
// request's records are staged, so a serial client's run is longer than the
// same run with durability off by exactly WalFlush per flush — and
// GroupCommitInterval, a field kept only for the benchmark's sake, changes
// nothing.
func TestSerialClientPaysOneFlushPerDurableRPC(t *testing.T) {
	flush := sim.DefaultCostModel().WalFlush
	run := func(d Durability) (elapsed, mkdir sim.Cycles, flushes, mkdirFlushes uint64) {
		cfg := Config{
			Cores: 2, Servers: 2, Timeshare: true,
			Techniques: AllTechniques(), Placement: sched.PolicyRoundRobin,
			BufferCacheBytes: 8 << 20, BlockSize: 4096, Durability: d,
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		defer sys.Stop()
		countFlushes := func() (n uint64) {
			for _, st := range sys.WalStats() {
				n += st.Flushes
			}
			return n
		}
		cli := sys.NewClient(0)
		populate(t, cli)
		for i := 0; i < 20; i++ {
			writeFile(t, cli, fmt.Sprintf("/f%02d", i), []byte("payload"))
		}
		// One mkdir is one coalesced-create RPC: one durable request.
		before, start := countFlushes(), cli.Clock()
		if err := cli.Mkdir("/one", fsapi.MkdirOpt{}); err != nil {
			t.Fatal(err)
		}
		mkdir, mkdirFlushes = cli.Clock()-start, countFlushes()-before
		return cli.Clock(), mkdir, countFlushes(), mkdirFlushes
	}
	off, offMkdir, _, _ := run(Durability{})
	on, onMkdir, flushes, mkdirFlushes := run(Durability{Enabled: true})
	if flushes == 0 {
		t.Fatal("the durable run flushed nothing")
	}
	if want := off + sim.Cycles(flushes)*flush; on != want {
		t.Errorf("durable run took %d cycles, want %d: the non-durable %d plus %d flushes of %d", on, want, off, flushes, flush)
	}
	if mkdirFlushes != 1 || onMkdir != offMkdir+flush {
		t.Errorf("mkdir took %d cycles and %d flushes with the log on, %d without; want one flush and exactly %d more", onMkdir, mkdirFlushes, offMkdir, flush)
	}
	timer, _, timerFlushes, _ := run(Durability{Enabled: true, GroupCommitInterval: 1_000_000})
	if timer != on || timerFlushes != flushes {
		t.Errorf("GroupCommitInterval moved the run: %d cycles and %d flushes, against %d and %d at 0", timer, timerFlushes, on, flushes)
	}
}

// TestFirstBlockCommitsWithItsCreate: the create of a process that writes what
// it creates logs inode, entry and block map as one append (DESIGN.md §7,
// "First block with the create"). A crash right after the chain's reply — the
// client holds the block and has written nothing yet — recovers a file that
// owns the block: what the client then writes through it reads back, whether
// the memory domain survived or not, and a second replay changes nothing.
func TestFirstBlockCommitsWithItsCreate(t *testing.T) {
	for _, loseMemory := range []bool{false, true} {
		sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
		cli := sys.NewClient(0)
		free := freeBlocks(sys)
		writeFile(t, cli, "/armed", []byte("shows that this process writes what it creates"))

		logged := func() (records, flushes uint64) {
			for _, st := range sys.WalStats() {
				records += st.Records
				flushes += st.Flushes
			}
			return records, flushes
		}
		records, flushes := logged()
		fd, err := cli.Open("/f", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if st := cli.Stats(); st.FirstBlocks != 1 {
			t.Fatalf("%d first blocks: the test is not on the armed path", st.FirstBlocks)
		}
		if r, f := logged(); r-records != 3 || f-flushes != 1 {
			t.Fatalf("the create logged %d records in %d flushes, want 3 (inode, entry, block map) in 1", r-records, f-flushes)
		}

		crashRecoverAll(t, sys, loseMemory)
		sent := cli.Stats().RPCs
		if _, err := cli.Write(fd, []byte("through the block the create brought")); err != nil {
			t.Fatal(err)
		}
		if n := cli.Stats().RPCs - sent; n != 0 {
			t.Fatalf("the write sent %d request messages, want 0", n)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
		reader := sys.NewClient(1)
		if got := readFile(t, reader, "/f"); string(got) != "through the block the create brought" {
			t.Fatalf("after recovery (memory lost: %v) /f reads %q", loseMemory, got)
		}

		// Replaying the records a second time assigns the same state.
		first, held := namespaceDump(t, reader, "/"), freeBlocks(sys)
		crashRecoverAll(t, sys, false)
		if second := namespaceDump(t, reader, "/"); second != first {
			t.Fatalf("second recovery changed state:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
		if got := freeBlocks(sys); !reflect.DeepEqual(got, held) {
			t.Fatalf("free blocks per server %v after the second recovery, %v after the first", got, held)
		}
		settled(t, reader) // its last clean close holds a reference until sent
		for _, path := range []string{"/armed", "/f"} {
			if err := cli.Unlink(path); err != nil {
				t.Fatal(err)
			}
		}
		if got := freeBlocks(sys); !reflect.DeepEqual(got, free) {
			t.Fatalf("free blocks per server %v once everything is unlinked, %v at the start", got, free)
		}
	}
}
