package core

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sched"
)

// TestExitedProcessesLeaveNothingBehind: 20 forked processes stat 50 names
// and exit; a bare client unlinks the 50, then crashes and recovers the
// names' server. The processes' endpoints left the network at their exits,
// so no callback waits at them and every callback payload is back in the
// server's cache; the restart flushes the one client still live.
func TestExitedProcessesLeaveNothingBehind(t *testing.T) {
	const procs, names = 20, 50
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
			if err := sys.SetParallel(parallel); err != nil {
				t.Fatal(err)
			}
			cli := sys.NewClient(0)
			for i := 0; i < names; i++ {
				writeFile(t, cli, fmt.Sprintf("/f%02d", i), []byte("x"))
			}

			// The root's entries are server 0's: it is the one that tracks
			// the lookups, calls back and restarts.
			var exited [procs + 1]msg.EndpointID
			status := sys.Procs().StartRoot(0, nil, func(p *sched.Proc) int {
				exited[procs] = p.FS.(*client.Client).EndpointID()
				hs := make([]*sched.Handle, procs)
				for c := range hs {
					h, err := p.Spawn(nil, func(p *sched.Proc) int {
						exited[c] = p.FS.(*client.Client).EndpointID()
						for i := 0; i < names; i++ {
							if _, err := p.FS.Stat(fmt.Sprintf("/f%02d", i)); err != nil {
								return 1
							}
						}
						return 0
					}, false)
					if err != nil {
						return 1
					}
					hs[c] = h
				}
				return p.Wait(hs...)
			}).Wait()
			if status != 0 {
				t.Fatalf("the processes exited with status %d", status)
			}

			// Between requests a server's cache is empty — a request's buffer
			// goes out again as its reply — so it is given buffers to lose: a
			// callback payload that stayed out would take one for good.
			srv, _ := sys.network.Endpoint(sys.servers[0].EndpointID())
			for i := 0; i < 8; i++ {
				srv.PutBuf(make([]byte, 0, 64))
			}
			cached := srv.CachedBufs()
			cli.AdvanceClock(sys.Procs().MaxEndTime())
			before := sys.network.CallbackCount()
			for i := 0; i < names; i++ {
				if err := cli.Unlink(fmt.Sprintf("/f%02d", i)); err != nil {
					t.Fatal(err)
				}
			}
			// Servers hear of no exit (ROADMAP item 28's open step, an exit
			// message): each exited tracker of each name is still called back
			// and charged for. Only the payload comes straight back.
			if got, want := sys.network.CallbackCount()-before, uint64(procs*names); got != want {
				t.Errorf("the unlinks sent %d callbacks, want %d", got, want)
			}
			for _, id := range exited {
				if ep, _ := sys.network.Endpoint(id); ep.Callbacks.Len() != 0 {
					t.Errorf("%d callbacks are queued at exited endpoint %d", ep.Callbacks.Len(), id)
				}
			}
			if got := srv.CachedBufs(); got != cached {
				t.Errorf("server 0's cache holds %d buffers after the callbacks, %d before", got, cached)
			}

			if err := sys.Crash(cli, 0); err != nil {
				t.Fatal(err)
			}
			before = sys.network.CallbackCount()
			if _, err := sys.Recover(cli, 0); err != nil {
				t.Fatal(err)
			}
			if got := sys.network.CallbackCount() - before; got != 1 {
				t.Errorf("the restart sent %d flushes, want 1, to the live bare client", got)
			}
			if ep, _ := sys.network.Endpoint(cli.EndpointID()); ep.Callbacks.Len() != 1 {
				t.Errorf("the bare client holds %d flushes, want 1", ep.Callbacks.Len())
			}
		})
	}
}
