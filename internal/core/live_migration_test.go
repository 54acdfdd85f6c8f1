package core

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestMembershipChangeMeetsLiveTraffic: a root process adds a server from its
// own client and, from the transition's pull stage — every FREEZE answered —
// spawns two workers that create in a distributed directory, so PULL, publish
// and COMMIT run against their traffic. Under the gated engine, where a
// server serves in virtual-time order, a worker's request parks on a frozen
// server and a worker is answered EEPOCH (its refresh is a traced span);
// both engines end with the same namespace.
func TestMembershipChangeMeetsLiveTraffic(t *testing.T) {
	const workers, files = 2, 24
	dumps := make(map[bool]string)
	for _, parallel := range []bool{false, true} {
		cfg := tracedConfig(8, 2)
		cfg.MaxServers, cfg.PlacePolicy = 3, place.PolicyRing
		sys := newTracedSystem(t, cfg)
		if err := sys.SetParallel(parallel); err != nil {
			t.Fatal(err)
		}
		seedFiles(t, sys, 16)
		status := sys.Procs().StartRoot(0, nil, func(p *sched.Proc) int {
			var hs []*sched.Handle
			sys.SetMigrationObserver(func(stage string, _ int) {
				if stage != "pull" || hs != nil {
					return
				}
				for w := 0; w < workers; w++ {
					h, err := p.Spawn(nil, func(wp *sched.Proc) int {
						for i := 0; i < files; i++ {
							fd, err := wp.FS.Open(fmt.Sprintf("/d/w%d-%02d", w, i), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
							if err != nil || wp.FS.Close(fd) != nil {
								return 1
							}
						}
						return 0
					}, true)
					if err != nil {
						t.Error(err)
						return
					}
					hs = append(hs, h)
				}
			})
			defer sys.SetMigrationObserver(nil)
			if _, err := sys.AddServer(p.FS.(*client.Client)); err != nil {
				t.Error(err)
				return 1
			}
			return p.Wait(hs...)
		}).Wait()
		if status != 0 {
			t.Fatalf("parallel=%v: the root exited %d", parallel, status)
		}

		var parked uint64
		for _, st := range sys.ServerStats() {
			parked += st.Parked
		}
		refreshes := 0
		for _, s := range sys.Tracer().Spans() {
			if s.Kind == trace.KindEpochRefresh {
				refreshes++
			}
		}
		t.Logf("parallel=%v: %d requests parked, %d EEPOCH refreshes", parallel, parked, refreshes)
		if parallel && (parked == 0 || refreshes == 0) {
			t.Errorf("the migration met no live traffic: %d requests parked, %d EEPOCH refreshes", parked, refreshes)
		}
		dumps[parallel] = namespaceDump(t, sys.NewClient(1), "/")
	}
	if dumps[false] != dumps[true] {
		t.Fatalf("the engines' namespaces differ:\nserialized:\n%s\nparallel:\n%s", dumps[false], dumps[true])
	}
}
