package core

import (
	"fmt"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
)

// elasticSystem builds a started deployment with headroom for growth.
func elasticSystem(t *testing.T, policy place.Policy, servers, maxServers int, d *Durability) *System {
	t.Helper()
	cfg := Config{
		Cores:            8,
		Servers:          servers,
		MaxServers:       maxServers,
		Timeshare:        true,
		Techniques:       AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		PlacePolicy:      policy,
		BufferCacheBytes: 32 << 20,
	}
	if d != nil {
		cfg.Durability = *d
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

// seedFiles creates n files inside a distributed directory and returns the
// directory's inode id plus the file names.
func seedFiles(t *testing.T, sys *System, n int) (proto.InodeID, []string) {
	t.Helper()
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
		fd, err := cli.Open("/d/"+names[i], fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatalf("create %s: %v", names[i], err)
		}
		if _, err := cli.Write(fd, []byte(names[i])); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cli.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	return proto.InodeID{Server: int32(st.Server), Local: st.Ino}, names
}

// verifyFiles checks every seeded file resolves and reads back its content
// through a fresh client (no warm caches).
func verifyFiles(t *testing.T, sys *System, names []string) {
	t.Helper()
	cli := sys.NewClient(1)
	ents, err := cli.ReadDir("/d")
	if err != nil {
		t.Fatalf("readdir after migration: %v", err)
	}
	if len(ents) != len(names) {
		t.Fatalf("readdir sees %d entries, want %d", len(ents), len(names))
	}
	for _, name := range names {
		fd, err := cli.Open("/d/"+name, fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatalf("open %s after migration: %v", name, err)
		}
		buf := make([]byte, len(name))
		if n, err := cli.Read(fd, buf); err != nil || string(buf[:n]) != name {
			t.Fatalf("read %s after migration: got %q (%v)", name, buf[:n], err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddServerMovesOnlyDeltaShards grows a ring deployment by one server
// and asserts (a) the namespace survives intact, (b) the epoch advanced,
// and (c) migration moved exactly the delta shard set — the entries whose
// route differs between the two maps — as counted by the new Economy
// counter.
func TestAddServerMovesOnlyDeltaShards(t *testing.T) {
	sys := elasticSystem(t, place.PolicyRing, 3, 5, nil)
	dir, names := seedFiles(t, sys, 80)

	oldMap := place.Initial(place.PolicyRing, 3)
	newMap := oldMap.Add(3)
	expected := 0
	for _, name := range names {
		if oldMap.Route(proto.Hash(dir, name)) != newMap.Route(proto.Hash(dir, name)) {
			expected++
		}
	}
	if expected == 0 {
		t.Fatal("test is vacuous: no entry moves under this membership change")
	}

	id, err := sys.AddServer()
	if err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	if id != 3 {
		t.Fatalf("new server id = %d, want 3", id)
	}
	if got := sys.Epoch(); got != 2 {
		t.Fatalf("epoch after add = %d, want 2", got)
	}
	if got := len(sys.Members()); got != 4 {
		t.Fatalf("members after add = %d, want 4", got)
	}
	if got := sys.MessageEconomy().MigEntries; got != uint64(expected) {
		t.Fatalf("migration moved %d entries, delta shard set is %d", got, expected)
	}
	// Well under the whole namespace: the ring's bounded-movement promise.
	if expected > 2*len(names)/(3+1) {
		t.Fatalf("ring moved %d of %d entries; exceeds the 2/N bound", expected, len(names))
	}
	verifyFiles(t, sys, names)
}

// TestAddServerModulo exercises the same growth under PolicyModulo: nearly
// everything moves, but the namespace must still be intact.
func TestAddServerModulo(t *testing.T) {
	sys := elasticSystem(t, place.PolicyModulo, 3, 4, nil)
	_, names := seedFiles(t, sys, 40)
	if _, err := sys.AddServer(); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	verifyFiles(t, sys, names)
}

// TestRemoveServerDrains drains a member: its entry shards migrate away, it
// leaves the placement map, and the namespace — including inodes that live
// on the drained server and never migrate — stays fully reachable.
func TestRemoveServerDrains(t *testing.T) {
	sys := elasticSystem(t, place.PolicyRing, 4, 4, nil)
	_, names := seedFiles(t, sys, 60)

	if err := sys.RemoveServer(2); err != nil {
		t.Fatalf("RemoveServer: %v", err)
	}
	if got := sys.Epoch(); got != 2 {
		t.Fatalf("epoch after drain = %d, want 2", got)
	}
	for _, m := range sys.Members() {
		if m == 2 {
			t.Fatal("drained server still a placement member")
		}
	}
	// The drained server holds no entry shards any more...
	if st := sys.ServerStats()[2]; st.Entries != 0 {
		t.Fatalf("drained server still holds %d entries", st.Entries)
	}
	// ...but its inodes stayed put and remain reachable.
	verifyFiles(t, sys, names)

	if err := sys.RemoveServer(2); err == nil {
		t.Fatal("draining a non-member succeeded")
	}
}

// TestAddServerLimits pins the guard rails: no headroom, wrong
// configuration, last-member drain.
func TestAddServerLimits(t *testing.T) {
	sys := elasticSystem(t, place.PolicyRing, 2, 2, nil)
	if _, err := sys.AddServer(); err == nil {
		t.Fatal("AddServer beyond MaxServers succeeded")
	}
	if err := sys.RemoveServer(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveServer(1); err == nil {
		t.Fatal("draining the last member succeeded")
	}
}

// TestCrashAtEveryTransitionStage crashes a server at each step of an epoch
// transition, through the one observer: a migration's freeze, pull and
// commit, and a failover's freeze, publish and commit of a survivor that is
// not the follower. The transition is left pending with every running server
// wholly on one side of the epoch boundary, and recovering the crashed server
// (which resumes the transition) converges the fleet on the new epoch with
// nothing pending and the namespace intact.
func TestCrashAtEveryTransitionStage(t *testing.T) {
	// The migration crashes server 1; the failover promotes server 1, whose
	// follower is server 2, and crashes the other survivor, server 0.
	const victim, survivor = 1, 0
	for _, tc := range []struct {
		name     string
		failover bool
		stage    string
	}{
		{"migration freeze", false, "freeze"},
		{"migration pull", false, "pull"},
		{"migration commit", false, "commit"},
		{"failover freeze", true, "freeze"},
		{"failover publish", true, "publish"},
		{"failover commit", true, "commit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
			_, names := seedFiles(t, sys, 40)
			before := sys.Epoch()

			target, at := victim, victim
			if tc.failover {
				target, at = survivor, survivor
				if tc.stage == "publish" {
					at = -1
				}
			}
			crashed := false
			sys.SetMigrationObserver(func(stage string, srv int) {
				if stage == tc.stage && srv == at && !crashed {
					crashed = true
					if err := sys.Crash(target); err != nil {
						t.Errorf("crash server %d at %s: %v", target, stage, err)
					}
				}
			})
			var err error
			if tc.failover {
				if err := sys.Crash(victim); err != nil {
					t.Fatal(err)
				}
				_, err = sys.Failover(victim)
			} else {
				_, err = sys.AddServer()
			}
			sys.SetMigrationObserver(nil)
			if !crashed {
				t.Fatalf("stage %s never reached server %d", tc.stage, at)
			}
			if err == nil {
				t.Fatalf("transition succeeded although server %d crashed at %s", target, tc.stage)
			}
			if !sys.MigrationPending() {
				t.Fatalf("nothing pending after a crash at %s", tc.stage)
			}
			// Either epoch, never both.
			for i, st := range sys.ServerStats() {
				if !sys.Crashed(i) && st.Epoch != before && st.Epoch != before+1 {
					t.Fatalf("server %d at epoch %d, want %d or %d", i, st.Epoch, before, before+1)
				}
			}

			if _, err := sys.Recover(target); err != nil {
				t.Fatalf("recover server %d: %v", target, err)
			}
			if sys.MigrationPending() {
				t.Fatal("transition still pending after recovery resumed it")
			}
			if got := sys.Epoch(); got != before+1 {
				t.Fatalf("published epoch %d, want %d", got, before+1)
			}
			for i, st := range sys.ServerStats() {
				if sys.Crashed(i) {
					t.Fatalf("server %d still down after the resume", i)
				}
				if st.Epoch != before+1 {
					t.Fatalf("server %d at epoch %d after the resume, want %d", i, st.Epoch, before+1)
				}
			}
			verifyFiles(t, sys, names)
		})
	}
}
