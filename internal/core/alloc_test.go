package core

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/fsapi"
	"repro/internal/repl"
	"repro/internal/sched"
)

// TestBoundaryAllocs pins what the calls users make allocate, through a real
// System so that the server goroutines' allocations count too (DESIGN.md
// §13). Nothing is left of the path walk, the codec or the per-call state,
// nor of what the file system keeps. An inode lives in a page of 64
// (table.Dense) and holds its block map's one run in place (ncc.BlockMap),
// and a name is copied only where it is kept, into its directory shard's slab
// (table.Names), which takes a 4 KiB chunk per hundred-odd names. A batch's
// sub-requests read their names in the envelope the server owns. Who has an
// entry cached costs nothing more: the first client is kept in the entry
// itself.
func TestBoundaryAllocs(t *testing.T) {
	sys := newTestSystem(t, 2, 2)
	c := sys.NewClient(0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Mkdir("/churn", fsapi.MkdirOpt{Distributed: true}))
	must(c.Mkdir("/home", fsapi.MkdirOpt{})) // centralized: every entry on one server
	payload := make([]byte, 64)
	const resident, churned = "/churn/resident-0123456789abcdef", "/churn/t0-000042-0123456789abcdef"
	from, to := "/home/alpha-0123456789abcdef", "/home/bravo-0123456789abcdef"
	for _, p := range []string{resident, from} {
		fd, err := c.Open(p, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		must(err)
		_, err = c.Write(fd, payload)
		must(err)
		must(c.Close(fd))
	}

	gates := []gate{
		{"stat", 0, func() {
			_, err := c.Stat(resident)
			must(err)
		}},
		{"open+close", 0, func() {
			fd, err := c.Open(resident, fsapi.ORdOnly, 0)
			must(err)
			must(c.Close(fd))
		}},
		// Nothing. The inode fills a slot of its server's current page and
		// holds its one block in place, and the name takes a run of its
		// shard's current chunk. The unlink's RM_MAP reads its name where it
		// lies. Nobody is called back: the only client that had the name
		// cached removed it.
		{"create/write/close/unlink", 0, func() {
			fd, err := c.Open(churned, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			must(err)
			_, err = c.Pwrite(fd, payload, 0)
			must(err)
			must(c.Close(fd))
			must(c.Unlink(churned))
		}},
		// Nothing: the new name goes into the shard's current chunk, and
		// the RM_MAP sub-request reads the old one where it lies.
		{"rename", 0, func() {
			must(c.Rename(from, to))
			from, to = to, from
		}},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) { g.check(t) })
	}

	// A stat whose final component misses the cache — every one, with the
	// directory cache off — sends LOOKUP and STAT as one chain. The LOOKUP
	// reads its name in the envelope, where a LOOKUP sent alone has the
	// decoder copy it; the two chained requests and the envelope stay on the
	// client's stack.
	tq := AllTechniques()
	tq.DirectoryCache = false
	csys, err := New(Config{Cores: 2, Servers: 2, Timeshare: true, Techniques: tq,
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 8 << 20, BlockSize: 4096})
	must(err)
	csys.Start()
	t.Cleanup(csys.Stop)
	cold := csys.NewClient(0)
	fd, err := cold.Open("/resident-0123456789abcdef", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	must(err)
	must(cold.Close(fd))
	coldStat := gate{"cold stat", 0, func() {
		_, err := cold.Stat("/resident-0123456789abcdef")
		must(err)
	}}
	t.Run(coldStat.name, func(t *testing.T) {
		coldStat.check(t)
		// Every message but the create was a chain of two, the first of them
		// led by the created file's clean close.
		if st := cold.Stats(); st.BatchedOps != 2*(st.RPCs-1)+1 {
			t.Errorf("%d request messages carried %d chained sub-operations", st.RPCs, st.BatchedOps)
		}
	})
	// With a clean close in front the stat's envelope is [CLOSE_INODE, LOOKUP,
	// STAT]: one request, one response slot and one array of each more, all on
	// the client's stack. The open before it is a cold chain too, its LOOKUP's
	// name lent like the stat's.
	ledStat := gate{"clean close leads cold stat", 0, func() {
		fd, err := cold.Open("/resident-0123456789abcdef", fsapi.ORdOnly, 0)
		must(err)
		must(cold.Close(fd))
		_, err = cold.Stat("/resident-0123456789abcdef")
		must(err)
	}}
	t.Run(ledStat.name, func(t *testing.T) {
		before := cold.Stats()
		ledStat.check(t)
		// Two messages a run, [LOOKUP, OPEN] and [CLOSE, LOOKUP, STAT].
		if st := cold.Stats(); st.BatchedOps-before.BatchedOps != 5*(st.RPCs-before.RPCs)/2 {
			t.Errorf("%d request messages carried %d chained sub-operations", st.RPCs-before.RPCs, st.BatchedOps-before.BatchedOps)
		}
	})

	// The same boundary with a write-ahead log and a synchronous replica
	// behind it: what a maildir delivery allocates, on the client, on the
	// server that logs and ships, and on the follower that ingests.
	dsys, err := New(Config{Cores: 2, Servers: 2, Timeshare: true, Techniques: AllTechniques(),
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 8 << 20, BlockSize: 4096,
		Durability: Durability{Enabled: true}, Replication: repl.Config{Mode: repl.Sync}})
	must(err)
	dsys.Start()
	t.Cleanup(dsys.Stop)
	c = dsys.NewClient(0)
	must(c.Mkdir("/mail", fsapi.MkdirOpt{}))
	must(c.Mkdir("/mail/tmp", fsapi.MkdirOpt{}))
	must(c.Mkdir("/mail/new", fsapi.MkdirOpt{}))
	const tmp, delivered = "/mail/tmp/m000042-0123456789abcdef", "/mail/new/m000042-0123456789abcdef"
	body, back := make([]byte, 1500), make([]byte, 1500)
	// Nine calls, five of which log and ship (79 allocations before the
	// durable path recycled), allocate nothing. Neither the primary nor the
	// replica allocates the inode, its block map or the names stored at the
	// create and the rename: both fill a slot of a page of 64, hold the
	// map's one run in the inode, and copy the names into the directory
	// shard's slab. The rename's and the unlink's RM_MAP sub-requests read
	// their names in the envelope, and so do the records staged under them:
	// the log encodes those before the reply, and the envelope is released
	// after it.
	// The two entries' trackers live in the entries. Nothing is left of the
	// staged records, of the shipped frames or of the six messages and
	// structs a ship and its ack used to be copied through, and nothing of
	// the two invalidations the server used to send the client about entries
	// it had removed itself.
	delivery := gate{"durable+sync delivery", 0, func() {
		fd, err := c.Open(tmp, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		must(err)
		_, err = c.Pwrite(fd, body, 0)
		must(err)
		must(c.Fsync(fd))
		must(c.Close(fd))
		must(c.Rename(tmp, delivered))
		fd, err = c.Open(delivered, fsapi.ORdOnly, 0)
		must(err)
		_, err = c.Pread(fd, back, 0)
		must(err)
		must(c.Close(fd))
		must(c.Unlink(delivered))
	}}
	t.Run(delivery.name, func(t *testing.T) { delivery.check(t) })
}

// gate is one pinned allocation count: op, warmed up, may allocate max times.
type gate struct {
	name string
	max  float64
	op   func()
}

func (g gate) check(t *testing.T) {
	for i := 0; i < 64; i++ { // fill every free list on both sides
		g.op()
	}
	if got := testing.AllocsPerRun(200, g.op); got > g.max {
		t.Errorf("%.2f allocations per run, want at most %v", got, g.max)
	} else {
		t.Logf("%.2f allocations per run", got)
	}
}

// TestReadDirAllocs pins what a listing costs: the reply's names decoded into
// one string the entries share, and the slice ReadDir returns — sized once
// and sorted in place. A broadcast to every server of a distributed
// directory allocates nothing of its own, so an empty one costs nothing,
// with its requests overlapped or sent one at a time.
func TestReadDirAllocs(t *testing.T) {
	sys := newTestSystem(t, 8, 8)
	c := sys.NewClient(0)
	cfg := sys.Config()
	cfg.Techniques.DirectoryBroadcast = false
	oneByOne, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneByOne.Start()
	t.Cleanup(oneByOne.Stop)
	c1 := oneByOne.NewClient(0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Mkdir("/list", fsapi.MkdirOpt{})) // centralized: one reply
	must(c.Mkdir("/spread", fsapi.MkdirOpt{Distributed: true}))
	must(c1.Mkdir("/spread", fsapi.MkdirOpt{Distributed: true}))
	const files = 96
	for i := 0; i < files; i++ {
		fd, err := c.Open(fmt.Sprintf("/list/f%06d-0123456789abcdef", i), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		must(err)
		must(c.Close(fd))
	}
	list := func(c *client.Client, path string, want int) func() {
		return func() {
			ents, err := c.ReadDir(path)
			must(err)
			if len(ents) != want {
				t.Fatalf("%s lists %d entries, want %d", path, len(ents), want)
			}
		}
	}
	for _, g := range []gate{
		{"96-entry centralized directory", 2, list(c, "/list", files)},
		{"empty distributed directory over 8 servers", 0, list(c, "/spread", 0)},
		{"empty distributed directory over 8 servers, DirectoryBroadcast off", 0, list(c1, "/spread", 0)},
	} {
		t.Run(g.name, func(t *testing.T) { g.check(t) })
	}
	ents, err := c.ReadDir("/list")
	must(err)
	for i, e := range ents {
		if want := fmt.Sprintf("f%06d-0123456789abcdef", i); e.Name != want {
			t.Fatalf("entry %d is %q, want %q", i, e.Name, want)
		}
	}
}
