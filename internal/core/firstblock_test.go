package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// First block with the create (DESIGN.md §7): a process whose last created
// file was written before it was closed sends its next create as
// [CREATE_COALESCED, EXTEND(PrevInode)], and the write that follows finds its
// block in hand. The tests read the mechanism off Stats().FirstBlocks and
// FirstBlockMisses, messages off Stats().RPCs, and leaks off the partitions'
// free-block counts. They drive the client through a whole System and live
// here, not in internal/client, because only this package sees the partitions.

// freeBlocks returns, per buffer-cache partition, how many blocks are
// unallocated. Once everything a run created is unlinked and closed the
// counts are what they were before it: a difference is a leaked block.
func freeBlocks(s *System) []int {
	out := make([]int, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.FreeCount()
	}
	return out
}

// allocated is how many blocks have left the partitions since free was taken.
func allocated(s *System, free []int) (blocks int) {
	for i, n := range freeBlocks(s) {
		blocks += free[i] - n
	}
	return blocks
}

// opened creates path and returns its descriptor and how many request
// messages the create sent.
func opened(t *testing.T, c *client.Client, path string) (fsapi.FD, uint64) {
	t.Helper()
	before := c.Stats().RPCs
	fd, err := c.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	return fd, c.Stats().RPCs - before
}

// wrote writes data and returns how many request messages that took.
func wrote(t *testing.T, c *client.Client, fd fsapi.FD, data string) uint64 {
	t.Helper()
	before := c.Stats().RPCs
	if n, err := c.Write(fd, []byte(data)); err != nil || n != len(data) {
		t.Fatalf("write: %d, %v", n, err)
	}
	return c.Stats().RPCs - before
}

// closed closes fd and returns how many request messages that took.
func closed(t *testing.T, c *client.Client, fd fsapi.FD) uint64 {
	t.Helper()
	before := c.Stats().RPCs
	if err := c.Close(fd); err != nil {
		t.Fatalf("close: %v", err)
	}
	return c.Stats().RPCs - before
}

// settled sends what c still owes the servers — the clean close Close kept
// back for the next message (DESIGN.md §7, "A clean close rides") — so that
// what is counted next, messages or free blocks, is of the calls that follow.
func settled(t *testing.T, c *client.Client) {
	t.Helper()
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// arm makes c a process that writes what it creates.
func arm(t *testing.T, c *client.Client, path string) {
	t.Helper()
	fd, _ := opened(t, c, path)
	wrote(t, c, fd, "x")
	closed(t, c, fd)
}

func firstBlockSystem(t *testing.T) (*System, *client.Client) {
	t.Helper()
	sys := newTestSystem(t, 4, 4)
	c := sys.NewClient(0)
	if err := c.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	return sys, c
}

// unlinkAll removes every file of /d and checks that no block is left
// allocated that was free at the start.
func unlinkAll(t *testing.T, sys *System, c *client.Client, free []int) {
	t.Helper()
	ents, err := c.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := c.Unlink("/d/" + e.Name); err != nil {
			t.Fatalf("unlink %s: %v", e.Name, err)
		}
	}
	if got := freeBlocks(sys); !reflect.DeepEqual(got, free) {
		t.Fatalf("free blocks per server %v once everything is unlinked, %v at the start: a block leaked", got, free)
	}
}

func TestFirstBlockRidesWithTheCreate(t *testing.T) {
	sys, c := firstBlockSystem(t)
	free := freeBlocks(sys)

	// The first created file shows what the process does: its write asks.
	fd, n := opened(t, c, "/d/one")
	if st := c.Stats(); n != 1 || st.FirstBlocks != 0 {
		t.Fatalf("first create: %d request messages, %d first blocks; want 1, 0", n, st.FirstBlocks)
	}
	if n := wrote(t, c, fd, "first"); n != 1 {
		t.Fatalf("first write of the first created file sent %d request messages, want 1 (EXTEND)", n)
	}
	closed(t, c, fd)

	// The second brings its block along, and its write sends nothing.
	fd, n = opened(t, c, "/d/two")
	if st := c.Stats(); n != 1 || st.FirstBlocks != 1 {
		t.Fatalf("second create: %d request messages, %d first blocks; want 1, 1", n, st.FirstBlocks)
	}
	// The block is capacity, not contents.
	if st, err := c.Fstat(fd); err != nil || st.Size != 0 {
		t.Fatalf("fstat of a pre-allocated, unwritten file: size %d, %v; want 0", st.Size, err)
	}
	if st, err := sys.NewClient(1).Stat("/d/two"); err != nil || st.Size != 0 {
		t.Fatalf("stat of a pre-allocated, unwritten file: size %d, %v; want 0", st.Size, err)
	}
	if n := wrote(t, c, fd, "second"); n != 0 {
		t.Fatalf("first write of the second created file sent %d request messages, want 0", n)
	}
	if n := closed(t, c, fd); n != 1 {
		t.Fatalf("close sent %d request messages, want 1", n)
	}
	if st := c.Stats(); st.FirstBlockMisses != 0 {
		t.Fatalf("%d mispredictions, want 0", st.FirstBlockMisses)
	}
	// Close-to-open: another core reads what went through that block.
	other := sys.NewClient(2)
	for path, want := range map[string]string{"/d/one": "first", "/d/two": "second"} {
		rfd, err := other.Open(path, fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		if n, err := other.Read(rfd, buf); err != nil || string(buf[:n]) != want {
			t.Fatalf("%s reads %q, %v; want %q", path, buf[:n], err, want)
		}
		other.Close(rfd)
	}
	settled(t, other)
	// A write larger than the block asks for the rest only.
	fd, _ = opened(t, c, "/d/three")
	if n := wrote(t, c, fd, string(make([]byte, 3*4096))); n != 1 {
		t.Fatalf("a three-block first write sent %d request messages, want 1", n)
	}
	closed(t, c, fd)
	unlinkAll(t, sys, c, free)
}

func TestFirstBlockMispredictionCostsOnce(t *testing.T) {
	sys, c := firstBlockSystem(t)
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	held := freeBlocks(sys) // the armed file's block

	// N creates closed unwritten: the first one brought a block, which stays
	// with its inode until unlink; the others bring none. No close sends more
	// than it ever did: an unwritten one waits, here for Sync.
	const n = 5
	for i := 0; i < n; i++ {
		fd, sentOpen := opened(t, c, fmt.Sprintf("/d/empty%d", i))
		sentClose := closed(t, c, fd)
		before := c.Stats().RPCs
		settled(t, c)
		if sentSync := c.Stats().RPCs - before; sentOpen != 1 || sentClose != 0 || sentSync != 1 {
			t.Fatalf("unwritten file %d: create %d, close %d, sync %d request messages; want 1, 0, 1", i, sentOpen, sentClose, sentSync)
		}
	}
	if st := c.Stats(); st.FirstBlocks != 1 || st.FirstBlockMisses != 1 {
		t.Fatalf("%d unwritten creates after arming: %d first blocks, %d misses; want 1, 1", n, st.FirstBlocks, st.FirstBlockMisses)
	}
	if got := allocated(sys, held); got != 1 {
		t.Fatalf("%d blocks held by %d unwritten files, want 1: one per streak of mispredictions", got, n)
	}
	if st, err := c.Stat("/d/empty0"); err != nil || st.Size != 0 {
		t.Fatalf("the file that keeps its unused block: size %d, %v", st.Size, err)
	}

	// A process that alternates pays today's messages at most: the written
	// file's EXTEND on its own, and nothing extra for the unwritten one, whose
	// close leads the next create when both files are on one server and goes
	// on its own before it when they are not.
	before := c.Stats()
	for i := 0; i < n; i++ {
		fd, _ := opened(t, c, fmt.Sprintf("/d/w%d", i))
		wrote(t, c, fd, "w")
		closed(t, c, fd)
		fd, _ = opened(t, c, fmt.Sprintf("/d/u%d", i))
		closed(t, c, fd)
	}
	settled(t, c)
	after := c.Stats()
	srv := func(path string) int {
		st, err := c.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Server
	}
	want := uint64(n*(3+1) + 1) // the last close went with Sync
	for i := 0; i+1 < n; i++ {
		if srv(fmt.Sprintf("/d/u%d", i)) != srv(fmt.Sprintf("/d/w%d", i+1)) {
			want++
		}
	}
	if got := after.RPCs - before.RPCs; got != want || got > n*(3+2) {
		t.Fatalf("%d written/unwritten pairs sent %d request messages, want %d and at most %d", n, got, want, n*(3+2))
	}
	if got := after.FirstBlockMisses - before.FirstBlockMisses; got != n {
		t.Fatalf("%d mispredictions over %d alternations, want %d", got, n, n)
	}

	// CloseAll counts a miss as Close does.
	arm(t, c, "/d/again")
	opened(t, c, "/d/left-open")
	c.CloseAll()
	if st := c.Stats(); st.FirstBlockMisses != n+2 {
		t.Fatalf("%d mispredictions after CloseAll, want %d", st.FirstBlockMisses, n+2)
	}
	unlinkAll(t, sys, c, free)
}

// TestFirstBlockSecondOpenerKeepsItsData: what the creating description did
// says nothing of what another open of the same file did. A second opener —
// another process by path, or the creator through a second descriptor — that
// writes into the block the create brought keeps its data when the creator
// closes its own descriptor unwritten, before or after the writer closes.
func TestFirstBlockSecondOpenerKeepsItsData(t *testing.T) {
	sys, c := firstBlockSystem(t)
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	other := sys.NewClient(1)

	for i, tc := range []struct {
		name        string
		writer      *client.Client
		writerFirst bool
	}{
		{"another process, closing first", other, true},
		{"another process, closing last", other, false},
		{"a second descriptor, closing first", c, true},
		{"a second descriptor, closing last", c, false},
	} {
		path, want := fmt.Sprintf("/d/second%d", i), "written by "+tc.name
		fd, _ := opened(t, c, path)
		if st := c.Stats(); st.FirstBlocks != uint64(i+1) {
			t.Fatalf("%s: %d first blocks, want %d: the test is not on the armed path", tc.name, st.FirstBlocks, i+1)
		}
		wfd, err := tc.writer.Open(path, fsapi.OWrOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.writer.Write(wfd, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if tc.writerFirst {
			closed(t, tc.writer, wfd)
			closed(t, c, fd)
		} else {
			closed(t, c, fd)
			closed(t, tc.writer, wfd)
		}
		// The creator's own description went unwritten, a miss: arm again.
		arm(t, c, path+".rearm")

		reader := sys.NewClient(2)
		if st, err := reader.Stat(path); err != nil || st.Size != int64(len(want)) {
			t.Fatalf("%s: stat size %d, %v; want %d", tc.name, st.Size, err, len(want))
		}
		if got := readFile(t, reader, path); string(got) != want {
			t.Fatalf("%s: the file reads %q, want %q", tc.name, got, want)
		}
		settled(t, reader)
	}
	unlinkAll(t, sys, c, free)
}

func TestFirstBlockPredictorFollowsForkNotExec(t *testing.T) {
	sys, c := firstBlockSystem(t)
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")

	forked, err := c.CloneForFork(1)
	if err != nil {
		t.Fatal(err)
	}
	child := forked.(*client.Client)
	fd, _ := opened(t, child, "/d/by-child")
	if st := child.Stats(); st.FirstBlocks != 1 {
		t.Fatalf("a forked child of an armed process: %d first blocks on its first create, want 1", st.FirstBlocks)
	}
	if n := wrote(t, child, fd, "child"); n != 0 {
		t.Fatalf("the child's first write sent %d request messages, want 0", n)
	}
	closed(t, child, fd)

	// An exec'd process starts as any process does.
	fresh := c.NewPeer(2)
	fd, _ = opened(t, fresh, "/d/by-exec")
	if st := fresh.Stats(); st.FirstBlocks != 0 {
		t.Fatalf("an exec'd process: %d first blocks on its first create, want 0", st.FirstBlocks)
	}
	if n := wrote(t, fresh, fd, "fresh"); n != 1 {
		t.Fatalf("its first write sent %d request messages, want 1", n)
	}
	closed(t, fresh, fd)
	unlinkAll(t, sys, c, free)
}

// TestFirstBlockSharedBeforeAnyWrite: a descriptor that fork shares before
// anything was written has moved to the server; whichever process closes it
// last cannot know what the other did, so the block stays with the inode — as
// extend-ahead's tail does — and goes at unlink. Nobody counts a miss.
func TestFirstBlockSharedBeforeAnyWrite(t *testing.T) {
	sys, c := firstBlockSystem(t)
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	held := freeBlocks(sys)

	fd, _ := opened(t, c, "/d/shared")
	withBlock := freeBlocks(sys)
	if reflect.DeepEqual(withBlock, held) {
		t.Fatal("the create brought no block: the test is not on the armed path")
	}
	forked, err := c.CloneForFork(1)
	if err != nil {
		t.Fatal(err)
	}
	child := forked.(*client.Client)
	if n := wrote(t, child, fd, "through the server"); n != 1 {
		t.Fatalf("a write through the shared descriptor sent %d request messages, want 1", n)
	}
	closed(t, child, fd)
	closed(t, c, fd)

	// The same with nothing written at all.
	fd, _ = opened(t, c, "/d/shared-unwritten")
	if forked, err = c.CloneForFork(1); err != nil {
		t.Fatal(err)
	}
	closed(t, forked.(*client.Client), fd)
	closed(t, c, fd)
	if st := c.Stats(); st.FirstBlocks != 2 || st.FirstBlockMisses != 0 {
		t.Fatalf("%d first blocks, %d misses; want 2, 0", st.FirstBlocks, st.FirstBlockMisses)
	}
	if st, err := c.Stat("/d/shared-unwritten"); err != nil || st.Size != 0 {
		t.Fatalf("shared, unwritten: size %d, %v", st.Size, err)
	}
	if blocks := allocated(sys, held); blocks != 2 {
		t.Fatalf("%d blocks stay with the two shared files' inodes, want 2", blocks)
	}
	unlinkAll(t, sys, c, free)
}

// TestFirstBlockOnTheSplitCreate: when the entry's server is off the creator's
// socket the block rides with [MKNOD, OPEN_INODE] to the inode's server, and
// a create that finds the name taken discards the orphan inode, block
// included, in one message.
func TestFirstBlockOnTheSplitCreate(t *testing.T) {
	sys := newTestSystem(t, 20, 20)
	c := sys.NewClient(0)
	if err := c.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	held := freeBlocks(sys)

	const files = 16
	split := 0
	for i := 0; i < files; i++ {
		fd, n := opened(t, c, fmt.Sprintf("/d/f%02d", i))
		if n == 2 {
			split++
		}
		if n := wrote(t, c, fd, "data"); n != 0 {
			t.Fatalf("write %d sent %d request messages, want 0", i, n)
		}
		closed(t, c, fd)
	}
	if split == 0 || split == files {
		t.Fatalf("%d of %d creates took the split path; the test needs both", split, files)
	}
	if st := c.Stats(); st.FirstBlocks != files {
		t.Fatalf("%d first blocks over %d creates, want every one", st.FirstBlocks, files)
	}
	// Creating over an existing name: the armed chain allocates, finds the
	// name taken, and gives everything back.
	before := c.Stats().RPCs
	for i := 0; i < files; i++ {
		fd, _ := opened(t, c, fmt.Sprintf("/d/f%02d", i))
		if st, err := c.Fstat(fd); err != nil || st.Size != 4 {
			t.Fatalf("re-opened f%02d: size %d, %v", i, st.Size, err)
		}
		closed(t, c, fd)
		settled(t, c) // the clean close, on its own
	}
	// Co-located: the chain (EEXIST, ECANCELED), OPEN, STAT, close. Split:
	// the chain, ADD_MAP, the undo, OPEN, STAT, close.
	if got, want := c.Stats().RPCs-before, uint64((files-split)*4+split*6); got != want {
		t.Fatalf("creating over %d existing names (%d split) sent %d request messages, want %d", files, split, got, want)
	}
	if blocks := allocated(sys, held); blocks != files {
		t.Fatalf("%d blocks allocated for %d one-block files", blocks, files)
	}
	unlinkAll(t, sys, c, free)
}

// TestSplitCreateOpenRefused pins what a create answers when the mode it asks
// for does not grant the access it opens with (0444, O_WRONLY). Beside its
// entry CREATE_COALESCED hands the creator its descriptor without asking, as
// POSIX does. Elsewhere the OPEN_INODE behind MKNOD checks the mode and
// refuses: the create fails with EACCES before the entry exists, the orphan
// inode is discarded in one message, and nothing is left behind.
func TestSplitCreateOpenRefused(t *testing.T) {
	sys := newTestSystem(t, 20, 20)
	c := sys.NewClient(0)
	if err := c.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	held := freeBlocks(sys)
	granted, refused := 0, 0
	for i := 0; granted == 0 || refused == 0; i++ {
		path := fmt.Sprintf("/d/ro%02d", i)
		before := c.Stats().RPCs
		fd, err := c.Open(path, fsapi.OCreate|fsapi.OWrOnly, 0o444)
		sent := c.Stats().RPCs - before
		switch {
		case err == nil && sent == 1:
			granted++
			if n := wrote(t, c, fd, "data"); n != 0 {
				t.Fatalf("%s: write sent %d request messages, want 0", path, n)
			}
			closed(t, c, fd)
		case err == fsapi.EACCES && sent == 2: // [MKNOD, OPEN → EACCES, EXTEND → ECANCELED], the undo
			refused++
			if _, err := c.Stat(path); err != fsapi.ENOENT {
				t.Fatalf("%s: stat after the refused create: %v, want ENOENT", path, err)
			}
		default:
			t.Fatalf("%s: %v after %d request messages", path, err, sent)
		}
	}
	if blocks := allocated(sys, held); blocks != granted {
		t.Fatalf("%d blocks allocated for %d created files (%d creates refused)", blocks, granted, refused)
	}
	unlinkAll(t, sys, c, free)
}

// TestFirstBlockCreateAfterAddServer: an armed client whose routing snapshot
// predates a membership change sends its chain under the old epoch; the
// EEPOCH bounces the whole chain — nothing was created, nothing allocated —
// and it goes again under the new one (TestColdStatAfterAddServer's pattern,
// on the mutation side).
func TestFirstBlockCreateAfterAddServer(t *testing.T) {
	sys, err := New(Config{Cores: 5, Servers: 4, MaxServers: 5, Timeshare: true,
		Techniques: AllTechniques(), Placement: sched.PolicyRoundRobin, BufferCacheBytes: 8 << 20, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctl := sys.NewClient(0)
	sys.Start()
	t.Cleanup(sys.Stop)
	c := sys.NewClient(0)
	if err := c.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	if _, err := sys.AddServer(ctl); err != nil {
		t.Fatal(err)
	}
	const files = 8
	for i := 0; i < files; i++ {
		fd, n := opened(t, c, fmt.Sprintf("/d/f%d", i))
		// The bounced chain and the chain again, once; one message after.
		want := uint64(1)
		if i == 0 {
			want = 2
		}
		if n != want {
			t.Fatalf("create %d after AddServer sent %d request messages, want %d", i, n, want)
		}
		if n := wrote(t, c, fd, "data"); n != 0 {
			t.Fatalf("write %d sent %d request messages, want 0", i, n)
		}
		closed(t, c, fd)
	}
	if st := c.Stats(); st.FirstBlocks != files || st.FirstBlockMisses != 0 {
		t.Fatalf("%d first blocks, %d misses; want %d, 0", st.FirstBlocks, st.FirstBlockMisses, files)
	}
	unlinkAll(t, sys, c, free)
}

// TestFirstBlockSyncedThenClosed: fsync and Sync tell the server size and
// version, so the close behind them is a clean one — it says nothing again and
// waits for the next message — and the first block the data went through is
// no miss. A write after the sync makes the close dirty again.
func TestFirstBlockSyncedThenClosed(t *testing.T) {
	sys, c := firstBlockSystem(t)
	free := freeBlocks(sys)
	arm(t, c, "/d/armed")
	sent := func(call func() error) uint64 {
		t.Helper()
		before := c.Stats().RPCs
		if err := call(); err != nil {
			t.Fatal(err)
		}
		return c.Stats().RPCs - before
	}
	for i, sync := range []func(fsapi.FD) error{c.Fsync, func(fsapi.FD) error { return c.Sync() }} {
		path := fmt.Sprintf("/d/synced%d", i)
		fd, _ := opened(t, c, path)
		wrote(t, c, fd, "through the first block")
		if n := sent(func() error { return sync(fd) }); n != 1 {
			t.Fatalf("sync %d sent %d request messages, want 1 (SET_SIZE)", i, n)
		}
		if n := closed(t, c, fd); n != 0 {
			t.Fatalf("the close behind sync %d sent %d request messages, want 0", i, n)
		}
		if n := sent(c.Sync); n != 1 {
			t.Fatalf("Sync with that close pending sent %d request messages, want 1 (CLOSE_INODE)", n)
		}
		reader := sys.NewClient(1)
		if got := readFile(t, reader, path); string(got) != "through the first block" {
			t.Fatalf("%s reads %q", path, got)
		}
		settled(t, reader)
	}
	if st := c.Stats(); st.FirstBlocks != 2 || st.FirstBlockMisses != 0 {
		t.Fatalf("%d first blocks, %d misses; want 2, 0: a block written and synced was used", st.FirstBlocks, st.FirstBlockMisses)
	}
	fd, _ := opened(t, c, "/d/more")
	wrote(t, c, fd, "synced, ")
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	wrote(t, c, fd, "then not")
	if n := closed(t, c, fd); n != 1 {
		t.Fatalf("a close with data written since the fsync sent %d request messages, want 1", n)
	}
	if st, err := sys.NewClient(1).Stat("/d/more"); err != nil || st.Size != int64(len("synced, then not")) {
		t.Fatalf("size %d, %v after fsync, write, close", st.Size, err)
	}
	unlinkAll(t, sys, c, free)
}

// TestPendingCloseHoldsAnUnlinkedFile: a clean close that waits keeps its
// reference at the server. When another process unlinks the file meanwhile,
// its blocks go when the close lands: with the closer's next message to that
// server, with Sync, and no later than the closer's exit.
func TestPendingCloseHoldsAnUnlinkedFile(t *testing.T) {
	sys, c := firstBlockSystem(t)
	other := sys.NewClient(1)
	for _, tc := range []struct {
		name string
		land func(reader *client.Client)
	}{
		{"the closer's next message to that server", func(reader *client.Client) {
			// The name is gone and the server said so: [CLOSE_INODE, LOOKUP, STAT].
			before := reader.Stats().RPCs
			if _, err := reader.Stat("/d/victim"); !fsapi.IsErrno(err, fsapi.ENOENT) {
				t.Fatalf("stat of the unlinked name: %v", err)
			}
			if n := reader.Stats().RPCs - before; n != 1 {
				t.Fatalf("the stat that took the close along sent %d request messages, want 1", n)
			}
		}},
		{"Sync", func(reader *client.Client) { settled(t, reader) }},
		{"the closer's exit", func(reader *client.Client) { reader.CloseAll() }},
	} {
		free := freeBlocks(sys)
		fd, _ := opened(t, c, "/d/victim")
		wrote(t, c, fd, "held")
		closed(t, c, fd)
		reader := sys.NewClient(2)
		if got := readFile(t, reader, "/d/victim"); string(got) != "held" {
			t.Fatalf("%s: read %q", tc.name, got)
		}
		if err := other.Unlink("/d/victim"); err != nil {
			t.Fatal(err)
		}
		if got := allocated(sys, free); got != 1 {
			t.Fatalf("%s: %d blocks allocated while the reader's close is pending, want the file's 1", tc.name, got)
		}
		tc.land(reader)
		if got := freeBlocks(sys); !reflect.DeepEqual(got, free) {
			t.Fatalf("%s: free blocks per server %v, %v before the file existed", tc.name, got, free)
		}
	}
}
