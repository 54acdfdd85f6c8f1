package client_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// The message budget: how many request messages one fsapi call sends, counted
// by Client.Stats().RPCs through a real deployment. It is the table of
// DESIGN.md §7 ("Request messages per call"); a change that moves a number
// here moves it there.
//
// Cold means the directory cache holds the path's parent but not its final
// component (another process created the file); warm means it holds both.
// Co-located means the entry's server stores the inode too, which creation
// affinity arranges whenever that server is on the creator's socket; on the
// 20-core two-socket machine half the names of a distributed directory hash
// to the other socket, and their inodes stay near the creator ("elsewhere").
// Armed means the process wrote the file it created last: its creates bring
// their first block along ("First block with the create"). A clean close —
// nothing written through the description since the server last heard its
// size — sends nothing and leads the closer's next message to that inode's
// server ("A clean close rides"); the table's other rows are measured with
// nothing pending (Sync sends it), the "behind a clean close" rows with one.

type budget map[string]uint64

var wantBudget = map[string]budget{
	"pipelining on": {
		"create co-located":        1,
		"create elsewhere":         2, // [MKNOD, OPEN] near the creator, ADD_MAP
		"create co-located, armed": 1, // [CREATE_COALESCED, EXTEND]
		"create elsewhere, armed":  2, // [MKNOD, OPEN, EXTEND], ADD_MAP
		"first write":              1, // EXTEND
		"first write, armed":       0,
		"close":                    1,
		"close unwritten, armed":   0, // the block stays with the inode
		"close clean":              0,
		"sync, a close pending":    1, // CLOSE_INODE
		"sync, nothing owed":       0,

		"stat behind a clean close, same server":   1, // [CLOSE_INODE, STAT]
		"stat behind a clean close, elsewhere":     2, // CLOSE_INODE, STAT
		"unlink behind a clean close, same server": 1, // [CLOSE_INODE, RM_MAP, UNLINK_INODE]
		"create behind a clean close, same server": 1, // [CLOSE_INODE, CREATE_COALESCED]
		"create behind a clean close, elsewhere":   2, // CLOSE_INODE, CREATE_COALESCED

		"stat cold co-located":   1, // [LOOKUP, STAT]
		"stat warm co-located":   1,
		"stat cold elsewhere":    2, // [LOOKUP, STAT → EXDEV], STAT
		"stat warm elsewhere":    1,
		"open cold co-located":   1, // [LOOKUP, OPEN]
		"open warm co-located":   1,
		"open cold elsewhere":    2,
		"open warm elsewhere":    1,
		"unlink cold co-located": 1, // [RM_MAP, UNLINK_INODE]
		"unlink warm co-located": 1,
		"unlink cold elsewhere":  2, // [RM_MAP, UNLINK_INODE → EXDEV], UNLINK_INODE
		"unlink warm elsewhere":  2,
		"stat missing":           1, // [LOOKUP → ENOENT, STAT → ECANCELED]
		"stat root":              1,
		"rename same server":     1, // [ADD_MAP, RM_MAP]
	},
	"pipelining off": {
		"create co-located":        1,
		"create elsewhere":         3, // MKNOD, OPEN, ADD_MAP
		"create co-located, armed": 1,
		"create elsewhere, armed":  3,
		"first write":              1,
		"first write, armed":       1,
		"close":                    1,
		"close unwritten, armed":   1,
		"close clean":              1,
		"sync, a close pending":    0,
		"sync, nothing owed":       0,

		"stat behind a clean close, same server":   1,
		"stat behind a clean close, elsewhere":     1,
		"unlink behind a clean close, same server": 2,
		"create behind a clean close, same server": 1,
		"create behind a clean close, elsewhere":   1,

		"stat cold co-located":   2, // LOOKUP, STAT
		"stat warm co-located":   1,
		"stat cold elsewhere":    2,
		"stat warm elsewhere":    1,
		"open cold co-located":   2,
		"open warm co-located":   1,
		"open cold elsewhere":    2,
		"open warm elsewhere":    1,
		"unlink cold co-located": 2, // RM_MAP, UNLINK_INODE
		"unlink warm co-located": 2,
		"unlink cold elsewhere":  2,
		"unlink warm elsewhere":  2,
		"stat missing":           1,
		"stat root":              1,
		"rename same server":     2, // ADD_MAP, RM_MAP
	},
}

// measureBudget drives the calls of the table on a 20-core deployment and
// returns the messages each sent, what the calls answered, and a listing of
// the namespace they left behind.
func measureBudget(t *testing.T, pipelining bool) (got budget, results, namespace []string) {
	t.Helper()
	tq := core.AllTechniques()
	tq.RPCPipelining = pipelining
	sys, err := core.New(core.Config{Cores: 20, Servers: 20, Timeshare: true, Techniques: tq,
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 8 << 20, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	got = budget{}
	count := func(c *client.Client, call func() error) (uint64, error) {
		before := c.Stats().RPCs
		err := call()
		return c.Stats().RPCs - before, err
	}
	record := func(key string, n uint64, err error) {
		t.Helper()
		if old, seen := got[key]; seen && old != n {
			t.Errorf("%s: %d messages, and %d before", key, n, old)
		}
		got[key] = n
		results = append(results, fmt.Sprintf("%s: %v", key, err))
	}
	sent := func(c *client.Client, key string, call func() error) {
		t.Helper()
		n, err := count(c, call)
		record(key, n, err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// closeClean closes a descriptor nothing was written through and sends
	// the close the client kept back, so that the next row starts from nothing.
	closeClean := func(c *client.Client, key string, fd fsapi.FD) {
		t.Helper()
		sent(c, key, func() error { return c.Close(fd) })
		must(c.Sync())
	}

	// The creator fills a distributed directory; what a create costs tells
	// where its inode went. armed follows what the creator did with the file
	// it created last.
	creator := sys.NewClient(0)
	must(creator.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}))
	names := map[string][]string{}
	armed, files := "", 0
	create := func() (path, place string, fd fsapi.FD) {
		path = fmt.Sprintf("/d/f%03d", files)
		files++
		place = "co-located"
		sent(creator, "create", func() (err error) {
			fd, err = creator.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			return err
		})
		if got["create"] > 1 {
			place = "elsewhere"
		}
		if n, seen := got["create "+place+armed]; seen && n != got["create"] {
			t.Errorf("create %s%s: %d messages, and %d before", place, armed, got["create"], n)
		}
		got["create "+place+armed] = got["create"]
		delete(got, "create")
		return path, place, fd
	}
	// Before it has written anything, until both places have been seen.
	for seen := map[string]bool{}; len(seen) < 2; {
		_, place, fd := create()
		seen[place] = true
		closeClean(creator, "close clean", fd)
	}
	const perPlace = 3 // one name each for stat, open and unlink
	for len(names["co-located"]) < perPlace || len(names["elsewhere"]) < perPlace {
		path, place, fd := create()
		sent(creator, "first write"+armed, func() error { _, err := creator.Write(fd, []byte(path)); return err })
		armed = ", armed"
		sent(creator, "close", func() error { return creator.Close(fd) })
		names[place] = append(names[place], path)
	}
	_, _, fd := create()
	closeClean(creator, "close unwritten"+armed, fd)

	// The walker shares the creator's socket and knows the directory, but
	// none of the names in it.
	walker := sys.NewClient(1)
	_, err = walker.Stat("/d")
	must(err)
	for _, place := range []string{"co-located", "elsewhere"} {
		forStat, forOpen, forUnlink := names[place][0], names[place][1], names[place][2]
		for _, temp := range []string{"cold", "warm"} {
			sent(walker, "stat "+temp+" "+place, func() error {
				st, err := walker.Stat(forStat)
				if err == nil && st.Size != int64(len(forStat)) {
					err = fmt.Errorf("size %d", st.Size)
				}
				return err
			})
			var fd fsapi.FD
			sent(walker, "open "+temp+" "+place, func() (err error) {
				fd, err = walker.Open(forOpen, fsapi.ORdOnly, 0)
				return err
			})
			closeClean(walker, "close clean", fd)
		}
		sent(walker, "unlink cold "+place, func() error { return walker.Unlink(forUnlink) })
		sent(walker, "unlink warm "+place, func() error { return walker.Unlink(forStat) })
	}
	sent(walker, "stat missing", func() error { _, err := walker.Stat("/d/missing"); return err })
	sent(walker, "stat root", func() error { _, err := walker.Stat("/"); return err })
	results = append(results, fmt.Sprintf("open a directory for writing: %v", func() error {
		_, err := walker.Open("/d", fsapi.OWrOnly, 0)
		return err
	}()))

	// Every entry of a centralized directory lives on one server.
	must(creator.Mkdir("/c", fsapi.MkdirOpt{}))
	fd, err = creator.Open("/c/old", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	must(err)
	must(creator.Close(fd))
	must(creator.Sync())
	sent(creator, "rename same server", func() error { return creator.Rename("/c/old", "/c/new") })

	// A clean close waits for the closer's next message. To its inode's
	// server it leads that message, which costs what it would have alone;
	// before a message to any other server it goes on its own, which is the
	// message the close used to be.
	srvOf := func(c *client.Client, path string) int {
		t.Helper()
		st, err := c.Stat(path)
		must(err)
		return st.Server
	}
	here, there := names["co-located"][1], ""
	kept, err := walker.ReadDir("/d")
	must(err)
	for _, e := range kept {
		if path := "/d/" + e.Name; srvOf(walker, path) != srvOf(walker, here) {
			there = path
		}
	}
	if there == "" {
		t.Fatal("every file kept is on one server; the test needs two")
	}
	pend := func() {
		t.Helper()
		fd, err := walker.Open(here, fsapi.ORdOnly, 0)
		must(err)
		sent(walker, "close clean", func() error { return walker.Close(fd) })
	}
	pend()
	sent(walker, "stat behind a clean close, same server", func() error { _, err := walker.Stat(here); return err })
	pend()
	sent(walker, "stat behind a clean close, elsewhere", func() error { _, err := walker.Stat(there); return err })
	pend()
	sent(walker, "sync, a close pending", walker.Sync)
	sent(walker, "sync, nothing owed", walker.Sync)
	pend()
	sent(walker, "unlink behind a clean close, same server", func() error { return walker.Unlink(here) })

	// Creates beside their entry, each behind the clean close of the one
	// before. A file on the creator's designated server may have been created
	// the other way (its entry elsewhere); those are left out.
	local, last := srvOf(creator, names["elsewhere"][1]), -1
	for seen := map[string]bool{}; len(seen) < 2; {
		path := fmt.Sprintf("/d/g%03d", files)
		files++
		var fd fsapi.FD
		n, err := count(creator, func() (err error) {
			fd, err = creator.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			return err
		})
		srv := srvOf(creator, path)
		if key := "create behind a clean close, same server"; srv != local && last >= 0 {
			if srv != last {
				key = "create behind a clean close, elsewhere"
			}
			record(key, n, err)
			seen[key] = true
		}
		sent(creator, "close clean", func() error { return creator.Close(fd) })
		last = srv
	}
	must(creator.Sync())

	if n := creator.Stats().BatchedOps + walker.Stats().BatchedOps; (n > 0) != pipelining {
		t.Errorf("%d sub-operations travelled in batches with pipelining %v", n, pipelining)
	}
	for _, dir := range []string{"/c", "/d"} {
		ents, err := walker.ReadDir(dir)
		must(err)
		for _, e := range ents {
			st, err := walker.Stat(dir + "/" + e.Name)
			must(err)
			namespace = append(namespace, fmt.Sprintf("%s/%s size=%d nlink=%d", dir, e.Name, st.Size, st.Nlink))
		}
	}
	sort.Strings(namespace)
	return got, results, namespace
}

func TestMessageBudget(t *testing.T) {
	type outcome struct{ results, namespace []string }
	outcomes := map[bool]outcome{}
	for _, pipelining := range []bool{true, false} {
		mode := "pipelining off"
		if pipelining {
			mode = "pipelining on"
		}
		got, results, namespace := measureBudget(t, pipelining)
		outcomes[pipelining] = outcome{results, namespace}
		want := wantBudget[mode]
		for key, n := range want {
			if got[key] != n {
				t.Errorf("%s: %s sent %d request messages, want %d", mode, key, got[key], n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: measured %d calls, the table has %d", mode, len(got), len(want))
		}
	}
	// The chain is an encoding of the two-message sequence, not a different
	// operation: with pipelining off the same calls answer the same and
	// leave the same namespace.
	if on, off := outcomes[true], outcomes[false]; !reflect.DeepEqual(on, off) {
		t.Errorf("pipelining on and off differ:\n on: %v\noff: %v", on, off)
	}
}

// TestColdStatAfterAddServer: a client whose routing snapshot predates a
// membership change sends its chain under the old epoch; the EEPOCH it gets
// back re-routes the whole chain, and the entry it finds is cached.
func TestColdStatAfterAddServer(t *testing.T) {
	sys, err := core.New(core.Config{Cores: 5, Servers: 4, MaxServers: 5, Timeshare: true,
		Techniques: core.AllTechniques(), Placement: sched.PolicyRoundRobin, BufferCacheBytes: 8 << 20, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	creator, walker := sys.NewClient(0), sys.NewClient(1)
	if err := creator.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	const files = 16
	for i := 0; i < files; i++ {
		fd, err := creator.Open(fmt.Sprintf("/d/f%02d", i), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if err := creator.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := walker.Stat("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddServer(); err != nil {
		t.Fatal(err)
	}
	before := walker.Stats().RPCs
	if _, err := walker.Stat("/d/f00"); err != nil {
		t.Fatalf("cold stat under a stale epoch: %v", err)
	}
	// The bounced chain, then the chain again — and the STAT on its own if
	// the entry has moved to the new server, away from its inode.
	if n := walker.Stats().RPCs - before; n != 2 && n != 3 {
		t.Errorf("cold stat under a stale epoch sent %d request messages, want 2 or 3", n)
	}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/d/f%02d", i)
		if _, err := walker.Stat(path); err != nil {
			t.Fatalf("cold stat of %s after the migration: %v", path, err)
		}
		before := walker.Stats().RPCs
		if _, err := walker.Stat(path); err != nil || walker.Stats().RPCs-before != 1 {
			t.Fatalf("warm stat of %s: %v, %d request messages", path, err, walker.Stats().RPCs-before)
		}
	}
}
