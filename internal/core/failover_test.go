package core

import (
	"fmt"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
)

// replSystem builds and starts a deployment with durability + replication.
// Techniques are all-off so every write travels through the servers and
// lands in the log (the strictest setting for loss accounting).
func replSystem(t *testing.T, servers int, r repl.Config) *System {
	t.Helper()
	cfg := Config{
		Cores:            8,
		Servers:          servers,
		MaxServers:       servers + 2,
		Timeshare:        true,
		Techniques:       Techniques{DirectoryDistribution: true},
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 8 << 20,
		BlockSize:        4096,
		Durability:       Durability{Enabled: true},
		Replication:      r,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

// TestFailoverPromotionKeepsNamespace is the headline sync-mode guarantee:
// crash a server with its whole memory domain, promote its replica, and
// nothing acknowledged is lost — the namespace and file contents read back
// bit-identically, with zero lost records reported.
func TestFailoverPromotionKeepsNamespace(t *testing.T) {
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	_, names := seedFiles(t, sys, 40)
	before := namespaceDump(t, sys.NewClient(2), "/")

	const victim = 1
	if err := sys.CrashLosingMemory(ctl, victim); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Failover(ctl, victim)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if rep.Fallback {
		t.Fatal("sync failover with a healthy follower fell back to log replay")
	}
	if rep.LostRecords != 0 {
		t.Fatalf("sync failover lost %d records (durable %d, last %d)", rep.LostRecords, rep.DurableLSN, rep.LastLSN)
	}
	if rep.Follower != 2 {
		t.Fatalf("follower = %d, want 2", rep.Follower)
	}
	if rep.Epoch <= 1 {
		t.Fatalf("promotion did not advance the epoch: %d", rep.Epoch)
	}
	if got := sys.Epoch(); got != rep.Epoch {
		t.Fatalf("published epoch %d != promoted epoch %d", got, rep.Epoch)
	}
	if rep.StallCycles <= 0 {
		t.Fatal("promotion reported no stall work")
	}

	after := namespaceDump(t, sys.NewClient(3), "/")
	if before != after {
		t.Fatalf("namespace diverged across failover:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	verifyFiles(t, sys, names)
}

// TestFailoverDoubleFailureFallsBack kills both the primary and its
// follower: promotion is impossible, so Failover must rebuild the primary
// from its own log — slower, but still zero-loss.
func TestFailoverDoubleFailureFallsBack(t *testing.T) {
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	_, names := seedFiles(t, sys, 24)
	before := namespaceDump(t, sys.NewClient(2), "/")

	const victim, follower = 0, 1
	if err := sys.Crash(ctl, victim); err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash(ctl, follower); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Failover(ctl, victim)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if !rep.Fallback {
		t.Fatal("failover with a dead follower did not fall back to log replay")
	}
	if rep.LostRecords != 0 {
		t.Fatalf("fallback replay lost %d records", rep.LostRecords)
	}
	if _, err := sys.Recover(ctl, follower); err != nil {
		t.Fatal(err)
	}
	after := namespaceDump(t, sys.NewClient(3), "/")
	if before != after {
		t.Fatalf("namespace diverged across fallback failover:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	verifyFiles(t, sys, names)
}

// TestFailoverDuringFrozenMigration crashes a server while it sits frozen
// inside a shard migration, then fails it over: the promotion must bump the
// epoch past the pending migration's, re-stamp the migration, and re-drive
// it to convergence — the namespace ends up fully migrated with no manual
// ResumeMigration call.
func TestFailoverDuringFrozenMigration(t *testing.T) {
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	_, names := seedFiles(t, sys, 60)

	const victim = 1
	sys.SetMigrationObserver(func(stage string, srv int) {
		// Every server is frozen by the time the first pull begins; kill
		// the victim at that boundary.
		if stage == "pull" && srv == victim && !sys.Crashed(victim) {
			if err := sys.Crash(ctl, victim); err != nil {
				t.Errorf("crash at %s/%d: %v", stage, srv, err)
			}
		}
	})
	if _, err := sys.AddServer(ctl); err == nil {
		t.Fatal("AddServer succeeded despite the mid-migration crash")
	}
	sys.SetMigrationObserver(nil)
	if !sys.MigrationPending() {
		t.Fatal("no pending migration after the crash")
	}

	rep, err := sys.Failover(ctl, victim)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if rep.Fallback {
		t.Fatal("expected promotion, got fallback")
	}
	if sys.MigrationPending() {
		t.Fatal("failover did not re-drive the pending migration")
	}
	if got := sys.Epoch(); got <= rep.Epoch {
		t.Fatalf("re-driven migration should publish past the promotion epoch: mig %d, promo %d", got, rep.Epoch)
	}
	verifyFiles(t, sys, names)
}

// TestFailoverResumedAfterReplay interrupts a promotion before its install
// step, then brings the promoted server back by log replay before the
// transition resumes. The snapshot sealed at failover time is then stale:
// a write the replayed server acknowledges, and a second crash of it, must
// not be undone by the resumed transition booting that snapshot. The server
// is frozen and committed like a survivor instead, and comes back by replay.
func TestFailoverResumedAfterReplay(t *testing.T) {
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	dir, names := seedFiles(t, sys, 24)

	// Server 0 holds the root and /d, so a client can create in /d while
	// the other survivor is down; its follower is server 1.
	const victim, survivor = 0, 2
	if dir.Server != victim {
		t.Fatalf("/d lives on server %d, want %d", dir.Server, victim)
	}
	sys.SetMigrationObserver(func(stage string, srv int) {
		if stage == "freeze" && srv == survivor && !sys.Crashed(survivor) {
			if err := sys.Crash(ctl, survivor); err != nil {
				t.Errorf("crash survivor: %v", err)
			}
		}
	})
	if err := sys.Crash(ctl, victim); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Failover(ctl, victim)
	sys.SetMigrationObserver(nil)
	if err == nil {
		t.Fatal("Failover succeeded although a survivor crashed at its freeze")
	}
	// The replay succeeds; the resume it triggers cannot freeze the
	// survivor, which is still down.
	if _, err := sys.Recover(ctl, victim); err == nil || sys.Crashed(victim) {
		t.Fatalf("replay of the victim: err %v, crashed %v; want it up with the transition still pending", err, sys.Crashed(victim))
	}

	// Acknowledge a write on the replayed victim, then crash it again.
	name := ""
	for i := 0; name == ""; i++ {
		if n := fmt.Sprintf("w%03d", i); sys.Routing().Map.Route(proto.Hash(dir, n)) == victim {
			name = n
		}
	}
	cli := sys.NewClient(2)
	fd, err := cli.Open("/d/"+name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatalf("create %s on the replayed victim: %v", name, err)
	}
	if _, err := cli.Write(fd, []byte(name)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := cli.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash(ctl, victim); err != nil {
		t.Fatal(err)
	}

	// The survivor's recovery resumes the transition, which must wait for
	// the victim rather than promote it from the stale snapshot.
	if _, err := sys.Recover(ctl, survivor); err == nil {
		t.Fatal("transition resumed although the victim is down")
	}
	if !sys.Crashed(victim) {
		t.Fatal("the resumed transition booted the stale snapshot into the victim")
	}
	if _, err := sys.Recover(ctl, victim); err != nil {
		t.Fatalf("recover victim: %v", err)
	}
	if sys.MigrationPending() {
		t.Fatal("transition still pending after every server is back")
	}
	for i, st := range sys.ServerStats() {
		if st.Epoch != sys.Epoch() {
			t.Fatalf("server %d at epoch %d, published %d", i, st.Epoch, sys.Epoch())
		}
	}
	verifyFiles(t, sys, append(names, name))
}

// TestFailoverAfterInterruptedFailover leaves a completed promotion's
// transition pending (a survivor crashes at its commit), then fails over a
// second server. The second promotion re-stamps the first transition past
// its own epoch, so that transition must freeze and commit the server it
// already promoted, or that server would stay an epoch behind the published
// map and answer EEPOCH to every client forever.
func TestFailoverAfterInterruptedFailover(t *testing.T) {
	sys := replSystem(t, 4, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	_, names := seedFiles(t, sys, 40)

	// Server 1 is promoted first (its follower is server 2) and server 0
	// crashes at its commit; server 2 is promoted second (follower 3).
	const first, survivor, second = 1, 0, 2
	sys.SetMigrationObserver(func(stage string, srv int) {
		if stage == "commit" && srv == survivor && !sys.Crashed(survivor) {
			if err := sys.Crash(ctl, survivor); err != nil {
				t.Errorf("crash survivor: %v", err)
			}
		}
	})
	if err := sys.Crash(ctl, first); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Failover(ctl, first)
	sys.SetMigrationObserver(nil)
	if err == nil {
		t.Fatal("Failover succeeded although a survivor crashed at its commit")
	}
	if sys.Crashed(first) {
		t.Fatal("the install did not run before the commit")
	}

	if err := sys.Crash(ctl, second); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Failover(ctl, second)
	if rep.Fallback || sys.Crashed(second) {
		t.Fatalf("second failover: %+v, %v; want a promotion", rep, err)
	}
	if _, err := sys.Recover(ctl, survivor); err != nil {
		t.Fatalf("recover survivor: %v", err)
	}
	if sys.MigrationPending() {
		t.Fatal("transition still pending after every server is back")
	}
	if got := sys.Epoch(); got <= rep.Epoch {
		t.Fatalf("the re-stamped transition should publish past the second promotion: %d, promo %d", got, rep.Epoch)
	}
	for i, st := range sys.ServerStats() {
		if st.Epoch != sys.Epoch() {
			t.Fatalf("server %d at epoch %d, published %d", i, st.Epoch, sys.Epoch())
		}
	}
	verifyFiles(t, sys, names)
}

// TestFailoverPromotionCoversCheckpointContents pins the interaction of
// direct access (§8), checkpoints (§6), and promotion (§12): direct-access
// writes land only in DRAM — no WAL record carries their bytes — and the
// durability contract makes them safe at the next checkpoint. The replica
// must honor that boundary too: the primary ships each checkpoint to its
// follower, so a promotion after a memory-domain loss restores the
// checkpointed contents instead of rolling them back to zero (a regression
// here was found by the chaos harness on tuple 42,11111,mod,sync).
func TestFailoverPromotionCoversCheckpointContents(t *testing.T) {
	cfg := Config{
		Cores:       8,
		Servers:     3,
		Timeshare:   true,
		Techniques:  Techniques{DirectoryDistribution: true, DirectAccess: true},
		Placement:   sched.PolicyRoundRobin,
		Durability:  Durability{Enabled: true},
		Replication: repl.Config{Mode: repl.Sync},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := sys.NewClient(0)
	sys.Start()
	t.Cleanup(sys.Stop)

	_, names := seedFiles(t, sys, 24)
	if err := sys.CheckpointAll(ctl); err != nil {
		t.Fatal(err)
	}

	const victim = 1
	if err := sys.CrashLosingMemory(ctl, victim); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Failover(ctl, victim)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if rep.Fallback {
		t.Fatal("sync failover with a healthy follower fell back to log replay")
	}
	verifyFiles(t, sys, names)
}

// TestReplicationDisabledIsFree pins the off switch: no follower ring, no
// replication messages — the subsystem vanishes.
func TestReplicationDisabledIsFree(t *testing.T) {
	sys := newDurableSystem(t, 4, 2, Durability{}, AllTechniques())
	seedFiles(t, sys, 16)

	if f := sys.FollowerOf(0); f != -1 {
		t.Fatalf("FollowerOf = %d with replication off", f)
	}
	if st := sys.ReplicaStats(); st != nil {
		t.Fatalf("ReplicaStats = %v with replication off", st)
	}
	e := sys.MessageEconomy()
	if e.ReplMsgs != 0 || e.ReplBytes != 0 {
		t.Fatalf("replication traffic with replication off: %d msgs, %d bytes", e.ReplMsgs, e.ReplBytes)
	}
	for i, st := range sys.ServerStats() {
		if st.ReplShips != 0 || st.ReplAcks != 0 {
			t.Fatalf("server %d shipped/acked with replication off: %+v", i, st)
		}
	}
}

// TestReplicaStatsSurface checks the lag introspection the shell's
// `replicas` command renders: after a quiesced sync workload every
// follower's durable horizon has caught the primary's last LSN.
func TestReplicaStatsSurface(t *testing.T) {
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	seedFiles(t, sys, 20)

	stats := sys.ReplicaStats()
	if len(stats) != 3 {
		t.Fatalf("ReplicaStats: %d entries, want 3", len(stats))
	}
	shipped := false
	for _, st := range stats {
		if st.Follower != (st.Server+1)%3 {
			t.Fatalf("server %d follower = %d, want %d", st.Server, st.Follower, (st.Server+1)%3)
		}
		if st.Ships > 0 {
			shipped = true
		}
		if st.Lag() != 0 {
			t.Fatalf("sync replication left server %d lagging: %+v (lag %d)", st.Server, st, st.Lag())
		}
	}
	if !shipped {
		t.Fatal("no server shipped anything")
	}
}

// TestFailoverRequiresCrashAndReplication pins the guard rails.
func TestFailoverRequiresCrashAndReplication(t *testing.T) {
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	if _, err := sys.Failover(ctl, 0); err == nil {
		t.Fatal("Failover of a running server succeeded")
	}
	if _, err := sys.Failover(ctl, 9); err == nil {
		t.Fatal("Failover of a nonexistent server succeeded")
	}

	plain := newDurableSystem(t, 4, 2, Durability{}, AllTechniques())
	plainCtl := plain.NewClient(0)
	if err := plain.Crash(plainCtl, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Failover(plainCtl, 0); err == nil {
		t.Fatal("Failover succeeded with replication disabled")
	}
	if _, err := plain.Recover(plainCtl, 0); err != nil {
		t.Fatal(err)
	}
}
