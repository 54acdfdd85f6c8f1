package client_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/sched"
)

// Where creation affinity puts a new inode (DESIGN.md §7 "Where a new inode
// goes"), on the 20-core two-socket deployment of TestMessageBudget: server i
// runs on core i, so servers 0–9 are socket 0 and 10–19 socket 1. /d is a
// distributed directory; /c is a centralized one made from core 15, so with
// creation affinity it is homed there and with affinity off beside its entry
// in the root directory, on server 0.

type placement struct {
	t   *testing.T
	sys *core.System
	n   int // names handed out so far
}

func newPlacement(t *testing.T, affinity bool) *placement {
	t.Helper()
	tq := core.AllTechniques()
	tq.CreationAffinity = affinity
	sys, err := core.New(core.Config{Cores: 20, Servers: 20, Timeshare: true, Techniques: tq,
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 8 << 20, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	p := &placement{t: t, sys: sys}
	p.must(sys.NewClient(0).Mkdir("/d", fsapi.MkdirOpt{Distributed: true}))
	p.must(sys.NewClient(15).Mkdir("/c", fsapi.MkdirOpt{}))
	if srv := p.server(sys.NewClient(0), "/c"); affinity && srv != 15 {
		t.Fatalf("/c is on server %d, want 15", srv)
	}
	return p
}

func (p *placement) must(err error) {
	p.t.Helper()
	if err != nil {
		p.t.Fatal(err)
	}
}

// server returns the server storing path's inode.
func (p *placement) server(c *client.Client, path string) int {
	p.t.Helper()
	st, err := c.Stat(path)
	p.must(err)
	return st.Server
}

// name returns a fresh path in dir whose entry is stored on c's socket
// (onSocket) or on the other one, and that entry's server.
func (p *placement) name(c *client.Client, dir string, onSocket bool) (string, int) {
	p.t.Helper()
	st, err := c.Stat(dir)
	p.must(err)
	ino := proto.InodeID{Server: int32(st.Server), Local: st.Ino}
	for {
		name := fmt.Sprintf("n%04d", p.n)
		p.n++
		entry := st.Server
		if dir == "/d" {
			entry = int(p.sys.Routing().Map.Route(proto.Hash(ino, name)))
		}
		if (entry/10 == c.Core()/10) == onSocket {
			return dir + "/" + name, entry
		}
	}
}

// make creates a file or directory at path and returns its inode's server.
func (p *placement) make(c fsapi.Client, path string, dir bool) int {
	p.t.Helper()
	if dir {
		p.must(c.Mkdir(path, fsapi.MkdirOpt{}))
	} else {
		fd, err := c.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		p.must(err)
		p.must(c.Close(fd))
	}
	st, err := c.Stat(path)
	p.must(err)
	return st.Server
}

// awayDirs makes n directories in /d whose entries are off c's socket and
// returns their inodes' servers in order.
func (p *placement) awayDirs(c *client.Client, n int) []int {
	p.t.Helper()
	var out []int
	for i := 0; i < n; i++ {
		path, _ := p.name(c, "/d", false)
		out = append(out, p.make(c, path, true))
	}
	return out
}

func TestCreationAffinityPlacement(t *testing.T) {
	for _, tc := range []struct {
		name     string
		affinity bool
		run      func(p *placement)
	}{
		{"the designated server is the member on the client core", true, func(p *placement) {
			for _, core := range []int{3, 14} {
				c := p.sys.NewClient(core)
				path, _ := p.name(c, "/d", false)
				if got := p.make(c, path, false); got != core || c.NearServer() != core {
					p.t.Errorf("core %d: designated server %d, a file away from its entry went to %d", core, c.NearServer(), got)
				}
			}
		}},
		{"draining the designated server falls back to the core-th socket member", true, func(p *placement) {
			c := p.sys.NewClient(3)
			p.must(p.sys.RemoveServer(c, 3))
			c.RefreshRouting()
			// Socket 0's members are now 0–2 and 4–9; the fourth of them is 4.
			path, _ := p.name(c, "/d", false)
			if got := p.make(c, path, false); got != 4 || c.NearServer() != 4 {
				p.t.Errorf("designated server %d, a file away from its entry went to %d; want 4", c.NearServer(), got)
			}
			if got, want := p.awayDirs(c, 3), []int{4, 5, 6}; !reflect.DeepEqual(got, want) {
				p.t.Errorf("directories went to %v, want %v", got, want)
			}
		}},
		{"off-socket directories in a distributed parent go round the socket and wrap", true, func(p *placement) {
			c := p.sys.NewClient(3)
			want := []int{3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4}
			if got := p.awayDirs(c, len(want)); !reflect.DeepEqual(got, want) {
				p.t.Errorf("directories went to %v, want %v", got, want)
			}
		}},
		{"files and centralized-parent directories go to the designated server", true, func(p *placement) {
			c := p.sys.NewClient(3)
			for i := 0; i < 3; i++ {
				file, _ := p.name(c, "/d", false)
				dir, _ := p.name(c, "/c", false)
				if f, d := p.make(c, file, false), p.make(c, dir, true); f != 3 || d != 3 {
					p.t.Errorf("a file went to %d and a directory in /c to %d, want 3", f, d)
				}
			}
			if got, want := p.awayDirs(c, 2), []int{3, 4}; !reflect.DeepEqual(got, want) {
				p.t.Errorf("then directories in /d went to %v, want %v", got, want)
			}
		}},
		{"coalesced creates and mkdirs never advance the counter", true, func(p *placement) {
			c := p.sys.NewClient(3)
			for i := 0; i < 3; i++ {
				file, fileEntry := p.name(c, "/d", true)
				dir, dirEntry := p.name(c, "/d", true)
				before := c.Stats().RPCs
				f, d := p.make(c, file, false), p.make(c, dir, true)
				if f != fileEntry || d != dirEntry {
					p.t.Errorf("on-socket entries on %d and %d, inodes on %d and %d", fileEntry, dirEntry, f, d)
				}
				// Each create and stat one message, the close none.
				if n := c.Stats().RPCs - before; n != 4 {
					p.t.Errorf("two coalesced creates and their stats sent %d messages, want 4", n)
				}
			}
			if got, want := p.awayDirs(c, 2), []int{3, 4}; !reflect.DeepEqual(got, want) {
				p.t.Errorf("then directories went to %v, want %v", got, want)
			}
		}},
		{"forked and executed children start their own sequence", true, func(p *placement) {
			parent := p.sys.NewClient(3)
			if got, want := p.awayDirs(parent, 2), []int{3, 4}; !reflect.DeepEqual(got, want) {
				p.t.Errorf("the parent's directories went to %v, want %v", got, want)
			}
			forked, err := parent.CloneForFork(3)
			p.must(err)
			for _, child := range []*client.Client{forked.(*client.Client), parent.NewPeer(3)} {
				if got, want := p.awayDirs(child, 2), []int{3, 4}; !reflect.DeepEqual(got, want) {
					p.t.Errorf("a child's directories went to %v, want %v", got, want)
				}
			}
			if got, want := p.awayDirs(parent, 1), []int{5}; !reflect.DeepEqual(got, want) {
				p.t.Errorf("the parent's next directory went to %v, want %v", got, want)
			}
		}},
		{"two clients on one core choose identical servers", true, func(p *placement) {
			a, b := p.sys.NewClient(12), p.sys.NewClient(12)
			if a.EndpointID() == b.EndpointID() {
				p.t.Fatalf("both clients have endpoint %d", a.EndpointID())
			}
			// Each makes the same sequence under names of its own: an inode
			// that stays with its entry is recorded as -1.
			var got [2][]int
			for i, c := range []*client.Client{a, b} {
				for _, away := range []bool{false, true, false, false, true, true} {
					for _, dir := range []bool{true, false} {
						path, entry := p.name(c, "/d", !away)
						srv := p.make(c, path, dir)
						if srv == entry && !away {
							srv = -1
						}
						got[i] = append(got[i], srv)
					}
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				p.t.Errorf("client %d placed %v, client %d %v", a.EndpointID(), got[0], b.EndpointID(), got[1])
			}
		}},
		{"with creation affinity off the inode goes to the entry server", false, func(p *placement) {
			c := p.sys.NewClient(13)
			for _, dir := range []string{"/d", "/c"} {
				for _, isDir := range []bool{false, true} {
					path, entry := p.name(c, dir, false)
					if got := p.make(c, path, isDir); got != entry {
						p.t.Errorf("%s (directory %v): entry on %d, inode on %d", path, isDir, entry, got)
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(newPlacement(t, tc.affinity)) })
	}
}
