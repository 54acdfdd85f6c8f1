package core

import (
	"testing"

	"repro/internal/fsapi"
	"repro/internal/repl"
	"repro/internal/sched"
)

// TestBoundaryAllocs pins what the calls users make allocate, through a real
// System so that the server goroutines' allocations count too (DESIGN.md
// §13). Nothing is left of the path walk, the codec or the per-call state;
// what is left is what the file system keeps — the name a server stores, the
// inode, a tracking set — and the copy of a name each decoder that meets one
// makes (a sub-request's, an invalidation's), strings being immutable.
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
		// The name stored, the inode, the tracking set; the unlink
		// sub-request's copy of the name, and a fraction for the inode's
		// block list and table growth. Nobody is called back: the only
		// client that had the name cached removed it.
		{"create/write/close/unlink", 5, func() {
			fd, err := c.Open(churned, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			must(err)
			_, err = c.Pwrite(fd, payload, 0)
			must(err)
			must(c.Close(fd))
			must(c.Unlink(churned))
		}},
		// The new name stored and its tracking set; the old name's
		// transient copy in the RM_MAP sub-request.
		{"rename", 3, func() {
			must(c.Rename(from, to))
			from, to = to, from
		}},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) { g.check(t) })
	}

	// A stat whose final component misses the cache — every one, with the
	// directory cache off — sends LOOKUP and STAT as one chain. The server's
	// decoder copies the name, as it does for a LOOKUP sent alone; the two
	// chained requests and the envelope stay on the client's stack.
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
	coldStat := gate{"cold stat", 1, func() {
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
	// the client's stack. The open before it is a cold chain too, and its
	// LOOKUP's name the second copy.
	ledStat := gate{"clean close leads cold stat", 2, func() {
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
	// durable path recycled). The primary keeps the name stored at the create
	// and again at the rename, the inode, its block list and the two entries'
	// tracking sets (6); the replica keeps its own copy of the two names, of
	// the inode and of the block list (4); and every decoder that meets a
	// name copies it, strings being immutable: the rename's and the unlink's
	// RM_MAP sub-requests (2). Nothing is left of the staged records, of the
	// shipped frames or of the six messages and structs a ship and its ack
	// used to be copied through, and nothing of the two invalidations the
	// server used to send the client about entries it had removed itself.
	delivery := gate{"durable+sync delivery", 12, func() {
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
