package core

import (
	"strings"
	"testing"

	"repro/internal/place"
	"repro/internal/sched"
)

// TestSetParallelRefusesLiveProcs: toggling the engine mid-flight would let
// lanes join with requests already in the air, so the switch is refused
// while any client process is live and allowed again once they exit.
func TestSetParallelRefusesLiveProcs(t *testing.T) {
	sys := elasticSystem(t, place.PolicyRing, 2, 2, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	h := sys.Procs().StartRoot(sys.AppCores()[0], []string{"blocker"}, func(p *sched.Proc) int {
		close(started)
		<-release
		return 0
	})
	<-started
	err := sys.SetParallel(true)
	if err == nil {
		t.Fatal("SetParallel(true) succeeded with a client process live")
	}
	if !strings.Contains(err.Error(), "live") {
		t.Fatalf("error %q does not name the live-process cause", err)
	}
	if sys.Parallel() {
		t.Fatal("refused toggle still installed the gate")
	}
	close(release)
	if status := h.Wait(); status != 0 {
		t.Fatalf("blocker exited with status %d", status)
	}
	if err := sys.SetParallel(true); err != nil {
		t.Fatalf("SetParallel(true) after the process exited: %v", err)
	}
	if err := sys.SetParallel(true); err != nil {
		t.Fatalf("same-state toggle must be a no-op: %v", err)
	}
	if err := sys.SetParallel(false); err != nil {
		t.Fatalf("SetParallel(false) while quiescent: %v", err)
	}
}

// TestSetParallelRefusesPendingMigration: an interrupted migration parks
// half-moved shards; the engine switch is refused until recovery re-drives
// it to completion.
func TestSetParallelRefusesPendingMigration(t *testing.T) {
	d := &Durability{Enabled: true, CheckpointEvery: 32}
	sys := elasticSystem(t, place.PolicyRing, 3, 4, d)
	ctl := sys.NewClient(0)
	seedFiles(t, sys, 20)

	const victim = 1
	crashed := false
	sys.SetMigrationObserver(func(stage string, srv int) {
		if stage == "commit" && srv == victim && !crashed {
			crashed = true
			if err := sys.Crash(ctl, victim); err != nil {
				t.Errorf("crash victim: %v", err)
			}
		}
	})
	if _, err := sys.AddServer(ctl); err == nil {
		t.Fatal("AddServer succeeded although the victim crashed mid-commit")
	}
	sys.SetMigrationObserver(nil)
	if !sys.MigrationPending() {
		t.Fatal("migration not pending after mid-commit crash")
	}
	err := sys.SetParallel(true)
	if err == nil {
		t.Fatal("SetParallel(true) succeeded with a migration pending")
	}
	if !strings.Contains(err.Error(), "migration") {
		t.Fatalf("error %q does not name the pending migration", err)
	}
	if _, err := sys.Recover(ctl, victim); err != nil {
		t.Fatalf("recover victim: %v", err)
	}
	if sys.MigrationPending() {
		t.Fatal("migration still pending after recovery auto-resume")
	}
	if err := sys.SetParallel(true); err != nil {
		t.Fatalf("SetParallel(true) after resume: %v", err)
	}
}

// TestParallelBareClientControlPlane pins a deadlock found driving the
// public API: a bare client (no scheduler) keeps issuing ops, then the
// caller fires out-of-band control-plane calls. Before bare clients parked
// their lanes between operations (client.Config.AutoPark), the quiescent
// client's frontier stayed pinned at its last request arrival and the
// control RPCs' arrivals never became safe — Checkpoint/AddServer/Failover
// hung forever under SetParallel(true).
func TestParallelBareClientControlPlane(t *testing.T) {
	d := &Durability{Enabled: true}
	sys := elasticSystem(t, place.PolicyRing, 2, 3, d)
	ctl := sys.NewClient(0)
	if err := sys.SetParallel(true); err != nil {
		t.Fatal(err)
	}
	_, names := seedFiles(t, sys, 12)

	if err := sys.CheckpointAll(ctl); err != nil {
		t.Fatalf("checkpoint with a quiescent bare client: %v", err)
	}
	if _, err := sys.AddServer(ctl); err != nil {
		t.Fatalf("migration with a quiescent bare client: %v", err)
	}
	const victim = 1
	if err := sys.Crash(ctl, victim); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(ctl, victim); err != nil {
		t.Fatal(err)
	}
	verifyFiles(t, sys, names)
}
