package client_test

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// Rename against real servers: the single-message path for entries stored on
// one server, and what it must not change (route_test.go scripts the EEPOCH
// fallback and the two-server order against fake servers).

func newDurableSystem(t *testing.T, techniques core.Techniques) *core.System {
	t.Helper()
	return newSystemWith(t, techniques, core.Durability{Enabled: true})
}

func createFile(t *testing.T, cli *client.Client, path, content string) {
	t.Helper()
	fd, err := cli.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(fd, []byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func totalFlushes(sys *core.System) (n uint64) {
	for _, st := range sys.WalStats() {
		n += st.Flushes
	}
	return n
}

func TestRenameSameNameRequiresExistingPath(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Rename("/missing", "/missing"); !fsapi.IsErrno(err, fsapi.ENOENT) {
		t.Fatalf("rename of a missing path onto itself returned %v, want ENOENT", err)
	}
	if err := cli.Rename("/nodir/x", "/nodir/x"); !fsapi.IsErrno(err, fsapi.ENOENT) {
		t.Fatalf("rename under a missing directory onto itself returned %v, want ENOENT", err)
	}
	createFile(t, cli, "/here", "x")
	if err := cli.Rename("/here", "/here"); err != nil {
		t.Fatalf("rename of an existing path onto itself: %v", err)
	}
	if _, err := cli.Stat("/here"); err != nil {
		t.Fatalf("the file is gone after renaming it onto itself: %v", err)
	}
}

func TestBatchedRenameIsOneMessageOneFlush(t *testing.T) {
	// Both entries of a rename inside a centralized directory live with the
	// directory's inode, on one server.
	sys := newDurableSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/m", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	createFile(t, cli, "/m/tmp", "message")
	before, flushed := cli.Stats(), totalFlushes(sys)
	if err := cli.Rename("/m/tmp", "/m/new"); err != nil {
		t.Fatal(err)
	}
	after := cli.Stats()
	if _, err := cli.Stat("/m/tmp"); !fsapi.IsErrno(err, fsapi.ENOENT) {
		t.Fatalf("old name still resolves: %v", err)
	}
	if st, err := cli.Stat("/m/new"); err != nil || st.Size != int64(len("message")) {
		t.Fatalf("new name: %+v, %v", st, err)
	}
	rpcs, batched, flushes := after.RPCs-before.RPCs, after.BatchedOps-before.BatchedOps, totalFlushes(sys)-flushed
	if rpcs != 1 || batched != 2 || flushes != 1 {
		t.Errorf("same-server rename: %d request messages carrying %d batched sub-ops, %d flushes; want 1, 2 and 1", rpcs, batched, flushes)
	}
}

func TestBatchedRenameUnlinksReplacedTarget(t *testing.T) {
	sys := newDurableSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/m", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	createFile(t, cli, "/m/winner", "winner")
	createFile(t, cli, "/m/loser", "loser")
	// A descriptor keeps the replaced inode observable after its last link
	// is dropped.
	loser, err := cli.Open("/m/loser", fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := cli.Stats()
	if err := cli.Rename("/m/winner", "/m/loser"); err != nil {
		t.Fatal(err)
	}
	if after := cli.Stats(); after.BatchedOps-before.BatchedOps != 2 {
		t.Fatalf("rename batched %d sub-ops, want 2: the test is not on the batched path", after.BatchedOps-before.BatchedOps)
	}
	if st, err := cli.Fstat(loser); err != nil || st.Nlink != 0 {
		t.Fatalf("replaced inode after rename: nlink %d (%v), want 0", st.Nlink, err)
	}
	cli.Close(loser)
	ents, err := cli.ReadDir("/m")
	if err != nil || len(ents) != 1 || ents[0].Name != "loser" {
		t.Fatalf("directory after the replacing rename: %+v (%v), want the one name %q", ents, err, "loser")
	}
	fd, err := cli.Open("/m/loser", fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := cli.Read(fd, buf); string(buf[:n]) != "winner" {
		t.Fatalf("the surviving name reads %q, want %q", buf[:n], "winner")
	}
	cli.Close(fd)
}

func TestCrossServerRenameStaysTwoRPCs(t *testing.T) {
	// In a distributed directory the two names usually hash to different
	// servers; such a rename must not batch.
	sys := newDurableSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	split := 0
	for i := 0; i < 16; i++ {
		from, to := fmt.Sprintf("/d/from%02d", i), fmt.Sprintf("/d/to%02d", i)
		createFile(t, cli, from, "x")
		before, flushed := cli.Stats(), totalFlushes(sys)
		if err := cli.Rename(from, to); err != nil {
			t.Fatal(err)
		}
		after := cli.Stats()
		rpcs, batched, flushes := after.RPCs-before.RPCs, after.BatchedOps-before.BatchedOps, totalFlushes(sys)-flushed
		switch {
		case rpcs == 2 && batched == 0 && flushes == 2:
			split++
		case rpcs == 1 && batched == 2 && flushes == 1:
			// The two names happened to share a server.
		default:
			t.Fatalf("rename %s -> %s: %d request messages, %d batched sub-ops, %d flushes", from, to, rpcs, batched, flushes)
		}
	}
	if split == 0 {
		t.Fatal("no rename of 16 spanned two servers; the test is not exercising the cross-server path")
	}
}

func TestCrashRightAfterBatchedRenameShowsExactlyTheNewName(t *testing.T) {
	// Both records of a batched rename are one log append: recovery from the
	// log alone, with the memory domain lost, lands after the rename with
	// the new name and without the old one.
	sys := newDurableSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/m", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	createFile(t, cli, "/m/tmp", "message")
	before := cli.Stats()
	if err := cli.Rename("/m/tmp", "/m/new"); err != nil {
		t.Fatal(err)
	}
	if after := cli.Stats(); after.BatchedOps-before.BatchedOps != 2 {
		t.Fatalf("rename batched %d sub-ops, want 2: the test is not on the batched path", after.BatchedOps-before.BatchedOps)
	}
	for i := 0; i < sys.NumServers(); i++ {
		if err := sys.CrashLosingMemory(cli, i); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Recover(cli, i); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := sys.NewClient(1).ReadDir("/m")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "new" {
		t.Fatalf("after recovery /m lists %+v, want exactly %q", ents, "new")
	}
	// The entry still names the inode the file was created with.
	if st, err := sys.NewClient(1).Stat("/m/new"); err != nil || st.Type != fsapi.TypeRegular || st.Nlink != 1 {
		t.Fatalf("recovered /m/new: %+v, %v", st, err)
	}
}
