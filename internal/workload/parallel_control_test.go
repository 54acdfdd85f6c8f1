package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/repl"
	"repro/internal/sched"
)

// The parallel engine's scope covers the full control plane (DESIGN.md §13):
// replication shipping and acks, failover promotion, crash/recovery, and
// elastic migration all hold and resume lane frontiers out of band. These
// tests fire each control plane between (and the snapshot pass after) real
// fork-fan-out traffic under both engines and require byte-identical
// namespaces.

// controlSystem builds a durable deployment (optionally replicated) with the
// parallel engine toggled.
func controlSystem(t *testing.T, parallel bool, mode repl.Mode) (*core.System, *Env) {
	t.Helper()
	cfg := core.Config{
		Cores:            4,
		Servers:          2,
		MaxServers:       4,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 32 << 20,
		Durability:       core.Durability{Enabled: true},
	}
	if mode != repl.Off {
		cfg.Replication = repl.Config{Mode: mode}
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	if parallel {
		if err := sys.SetParallel(true); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Procs: sys.Procs(), Cores: sys.AppCores(), Counter: NewOpCounter(), Scale: 0.05}
	return sys, env
}

// controlPhase runs one round of conflict-free fork-fan-out traffic under dir.
func controlPhase(env *Env, dir string, workers int) error {
	return runRoot(env, "ctl"+dir, func(p *sched.Proc) int {
		if err := p.FS.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
			return 1
		}
		return fanOut(p, workers, func(wp *sched.Proc, idx int) int {
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("%s/w%d-f%02d", dir, idx, i)
				fd, err := wp.FS.Open(name, fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
				if err != nil {
					return 1
				}
				if _, err := wp.FS.Write(fd, []byte(name)); err != nil {
					return 1
				}
				if err := wp.FS.Close(fd); err != nil {
					return 1
				}
			}
			return 0
		})
	})
}

// controlSnapshot compares final namespaces across engines.
func controlSnapshot(t *testing.T, snaps map[bool]map[string]string) {
	t.Helper()
	if len(snaps[false]) == 0 {
		t.Fatal("empty namespace snapshot; nothing to compare")
	}
	if !reflect.DeepEqual(snaps[false], snaps[true]) {
		t.Fatalf("namespace diverged between engines:\nser: %v\npar: %v", snaps[false], snaps[true])
	}
}

// TestParallelReplicationFailoverEquivalence runs fan-out traffic, ships a
// full checkpoint to the followers, crashes a primary and promotes its
// replica (seal → freeze → publish → commit), then runs more traffic — all
// under both engines. The promotion's lane holds must keep every gated
// server off the promotion epoch's past.
func TestParallelReplicationFailoverEquivalence(t *testing.T) {
	snaps := make(map[bool]map[string]string)
	for _, parallel := range []bool{false, true} {
		sys, env := controlSystem(t, parallel, repl.Sync)
		ctl := sys.NewClient(0)
		if err := controlPhase(env, "/before", 3); err != nil {
			t.Fatalf("phase before (parallel=%v): %v", parallel, err)
		}
		if err := sys.CheckpointAll(ctl); err != nil {
			t.Fatalf("checkpoint (parallel=%v): %v", parallel, err)
		}
		const victim = 1
		if err := sys.Crash(ctl, victim); err != nil {
			t.Fatalf("crash (parallel=%v): %v", parallel, err)
		}
		if _, err := sys.Failover(ctl, victim); err != nil {
			t.Fatalf("failover (parallel=%v): %v", parallel, err)
		}
		if err := controlPhase(env, "/after", 3); err != nil {
			t.Fatalf("phase after (parallel=%v): %v", parallel, err)
		}
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/", snap)
		snaps[parallel] = snap
	}
	controlSnapshot(t, snaps)
}

// TestParallelCrashRecoverEquivalence checkpoints, crashes, and log-replays
// a server between traffic rounds under both engines: the crash is a request
// the server serves in arrival order before its loop stops, and the restart
// begins at the control client's clock.
func TestParallelCrashRecoverEquivalence(t *testing.T) {
	snaps := make(map[bool]map[string]string)
	for _, parallel := range []bool{false, true} {
		sys, env := controlSystem(t, parallel, repl.Off)
		ctl := sys.NewClient(0)
		if err := controlPhase(env, "/before", 3); err != nil {
			t.Fatalf("phase before (parallel=%v): %v", parallel, err)
		}
		const victim = 1
		if err := sys.Checkpoint(ctl, victim); err != nil {
			t.Fatalf("checkpoint (parallel=%v): %v", parallel, err)
		}
		if err := sys.Crash(ctl, victim); err != nil {
			t.Fatalf("crash (parallel=%v): %v", parallel, err)
		}
		if _, err := sys.Recover(ctl, victim); err != nil {
			t.Fatalf("recover (parallel=%v): %v", parallel, err)
		}
		if err := controlPhase(env, "/after", 3); err != nil {
			t.Fatalf("phase after (parallel=%v): %v", parallel, err)
		}
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/", snap)
		snaps[parallel] = snap
	}
	controlSnapshot(t, snaps)
}

// TestParallelMigrationEquivalence grows and then drains the deployment
// between traffic rounds under both engines: migration's freeze → pull →
// publish → commit legs leave the control client's own lane.
func TestParallelMigrationEquivalence(t *testing.T) {
	snaps := make(map[bool]map[string]string)
	for _, parallel := range []bool{false, true} {
		sys, env := controlSystem(t, parallel, repl.Off)
		ctl := sys.NewClient(0)
		if err := controlPhase(env, "/before", 3); err != nil {
			t.Fatalf("phase before (parallel=%v): %v", parallel, err)
		}
		id, err := sys.AddServer(ctl)
		if err != nil {
			t.Fatalf("add server (parallel=%v): %v", parallel, err)
		}
		if err := controlPhase(env, "/grown", 3); err != nil {
			t.Fatalf("phase grown (parallel=%v): %v", parallel, err)
		}
		if err := sys.RemoveServer(ctl, id); err != nil {
			t.Fatalf("remove server (parallel=%v): %v", parallel, err)
		}
		if err := controlPhase(env, "/after", 3); err != nil {
			t.Fatalf("phase after (parallel=%v): %v", parallel, err)
		}
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/", snap)
		snaps[parallel] = snap
	}
	controlSnapshot(t, snaps)
}
