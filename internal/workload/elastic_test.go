package workload

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sched"
)

// The elastic placement layer (DESIGN.md §9) must be invisible to the
// namespace: a run that adds and drains servers mid-workload leaves exactly
// the tree a static run leaves, for both placement policies, and including
// a server crash in the middle of the migration (under durability).

// elasticSystem builds a Hare deployment with optional growth headroom.
func elasticSystem(t *testing.T, policy place.Policy, servers, maxServers int, d *core.Durability) (*core.System, *Env) {
	t.Helper()
	cfg := core.Config{
		Cores:            4,
		Servers:          servers,
		MaxServers:       maxServers,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		PlacePolicy:      policy,
		BufferCacheBytes: 32 << 20,
	}
	if d != nil {
		cfg.Durability = *d
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	env := &Env{Procs: sys.Procs(), Cores: sys.AppCores(), Counter: NewOpCounter(), Scale: 1}
	return sys, env
}

// TestElasticNamespaceEquivalence runs the elastic workload with live
// membership changes (grow by one, then drain it again) and compares the
// resulting tree with a static run of the same operation stream, under both
// placement policies.
func TestElasticNamespaceEquivalence(t *testing.T) {
	for _, policy := range []place.Policy{place.PolicyRing, place.PolicyModulo} {
		t.Run(policy.String(), func(t *testing.T) {
			snaps := make(map[bool]map[string]string)
			for _, elastic := range []bool{true, false} {
				sys, env := elasticSystem(t, policy, 2, 4, nil)
				if elastic {
					env.Elastic = sys
				}
				w := &Elastic{PerWorker: 8, Drain: true}
				runOne(t, env, w)
				if elastic {
					if got := sys.Epoch(); got != 3 {
						t.Fatalf("epoch after grow+drain = %d, want 3", got)
					}
					if got := len(sys.Members()); got != 2 {
						t.Fatalf("members after grow+drain = %d, want 2", got)
					}
				}
				snap := make(map[string]string)
				snapshotFS(t, sys.NewClient(0), "/elastic", snap)
				snaps[elastic] = snap
			}
			if !reflect.DeepEqual(snaps[true], snaps[false]) {
				t.Fatalf("namespace diverged between elastic and static runs:\n elastic: %v\n static: %v",
					snaps[true], snaps[false])
			}
			if len(snaps[true]) == 0 {
				t.Fatal("snapshot is empty; the workload left nothing to compare")
			}
		})
	}
}

// crashyController wraps a system's elastic controller so that the first
// AddServer — sabotaged by a migration observer that crashes a server at
// its commit step — is recovered and resumed transparently, the way an
// operator would: recover the victim, and recovery auto-resumes the pending
// migration.
type crashyController struct {
	sys    *core.System
	victim int
	t      *testing.T
}

func (c *crashyController) AddServer() (int, error) {
	id, err := c.sys.AddServer()
	if err == nil {
		return id, nil
	}
	c.t.Logf("AddServer interrupted as planned (%v); recovering server %d", err, c.victim)
	if _, rerr := c.sys.Recover(c.victim); rerr != nil {
		return id, rerr
	}
	if c.sys.MigrationPending() {
		return id, c.sys.ResumeMigration()
	}
	return id, nil
}

func (c *crashyController) RemoveServer(id int) error { return c.sys.RemoveServer(id) }
func (c *crashyController) Epoch() uint64             { return c.sys.Epoch() }
func (c *crashyController) Members() []int            { return c.sys.Members() }

// TestElasticCrashDuringMigrationEquivalence injects a server crash into
// the commit step of the mid-workload migration (durability on), recovers,
// and checks the final tree still matches a static run byte for byte —
// crash recovery lands the fleet on exactly one epoch with no entry lost or
// duplicated.
func TestElasticCrashDuringMigrationEquivalence(t *testing.T) {
	d := &core.Durability{Enabled: true, CheckpointEvery: 32}
	snaps := make(map[bool]map[string]string)
	for _, elastic := range []bool{true, false} {
		sys, env := elasticSystem(t, place.PolicyRing, 2, 3, d)
		if elastic {
			const victim = 1
			crashed := false
			sys.SetMigrationObserver(func(stage string, srv int) {
				if stage == "commit" && srv == victim && !crashed {
					crashed = true
					if err := sys.Crash(victim); err != nil {
						t.Errorf("crash victim: %v", err)
					}
				}
			})
			env.Elastic = &crashyController{sys: sys, victim: victim, t: t}
		}
		w := &Elastic{PerWorker: 8}
		runOne(t, env, w)
		if elastic {
			if got := sys.Epoch(); got != 2 {
				t.Fatalf("epoch after recovered migration = %d, want 2", got)
			}
			for i, st := range sys.ServerStats() {
				if st.Epoch != 2 {
					t.Fatalf("server %d at epoch %d after resume, want 2", i, st.Epoch)
				}
			}
		}
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/elastic", snap)
		snaps[elastic] = snap
	}
	if !reflect.DeepEqual(snaps[true], snaps[false]) {
		t.Fatalf("namespace diverged after crash-interrupted migration:\n elastic: %v\n static: %v",
			snaps[true], snaps[false])
	}
	if len(snaps[true]) == 0 {
		t.Fatal("crash-equivalence snapshot is empty")
	}
}
