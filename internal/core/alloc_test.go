package core

import (
	"testing"

	"repro/internal/fsapi"
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

	gates := []struct {
		name string
		max  float64
		op   func()
	}{
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
		// sub-request's copy of the name, the invalidation's, and a
		// fraction for the inode's block list and table growth.
		{"create/write/close/unlink", 6, func() {
			fd, err := c.Open(churned, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			must(err)
			_, err = c.Pwrite(fd, payload, 0)
			must(err)
			must(c.Close(fd))
			must(c.Unlink(churned))
		}},
		// The new name stored and its tracking set; the old name's two
		// transient copies.
		{"rename", 4, func() {
			must(c.Rename(from, to))
			from, to = to, from
		}},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			for i := 0; i < 64; i++ { // fill every free list on both sides
				g.op()
			}
			if got := testing.AllocsPerRun(200, g.op); got > g.max {
				t.Errorf("%.2f allocations per run, want at most %v", got, g.max)
			} else {
				t.Logf("%.2f allocations per run", got)
			}
		})
	}
}
