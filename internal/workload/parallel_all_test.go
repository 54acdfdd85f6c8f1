package workload

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// within runs fn and fails the test at once if it returns an error or has not
// returned after d, in which case it prints the gate's stall report
// (sim.Gate.String): a wedged parallel run otherwise shows only as a
// goroutine dump with every server asleep in PopWaitEarliestGated. After a
// deadline fn's goroutines are still blocked.
func within(t *testing.T, sys *core.System, d time.Duration, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("no progress after %v (parallel=%v):\n%v", d, sys.Parallel(), sys.Network().Gate())
	}
}

// TestParallelEveryWorkload runs every registered workload — the paper's
// suite, the elastic workload against a real controller (AddServer fires
// between its phases) and the crash-recovery workload on a durable deployment
// — under the parallel engine against a wall-clock deadline, and compares the
// namespace it leaves with the serialized engine's. A blocking edge whose
// lane nobody takes out of the gate shows here as a deadline with the lane
// named (build linux's and elastic's waiting roots did, before Proc.Wait).
func TestParallelEveryWorkload(t *testing.T) {
	registered := func() []Workload { return slices.Concat(All(), ElasticBenchmarks(), FaultBenchmarks()) }
	for i, w := range registered() {
		t.Run(w.Name(), func(t *testing.T) {
			snaps := make(map[bool]map[string]string)
			for _, parallel := range []bool{false, true} {
				sys, err := core.New(core.Config{
					Cores: 4, Servers: 2, MaxServers: 4, Timeshare: true,
					Techniques: core.AllTechniques(), Placement: w.Placement(),
					BufferCacheBytes: 32 << 20, Durability: core.Durability{Enabled: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				sys.Start()
				if err := sys.SetParallel(parallel); err != nil {
					t.Fatal(err)
				}
				env := &Env{
					Procs: sys.Procs(), Cores: sys.AppCores(), Counter: NewOpCounter(), Scale: 0.05,
					Faults: coreFaults{sys}, Elastic: sys,
				}
				w := registered()[i] // a fresh instance per engine: some keep state
				within(t, sys, time.Minute, func() error {
					if err := w.Setup(env); err != nil {
						return fmt.Errorf("setup (parallel=%v): %w", parallel, err)
					}
					if _, err := w.Run(env); err != nil {
						return fmt.Errorf("run (parallel=%v): %w", parallel, err)
					}
					return nil
				})
				snaps[parallel] = make(map[string]string)
				snapshotFS(t, sys.NewClient(0), "/", snaps[parallel])
				sys.Stop() // not deferred: after a deadline the deployment cannot stop
			}
			if !reflect.DeepEqual(snaps[true], snaps[false]) {
				t.Fatalf("namespace diverged between engines:\npar: %v\nser: %v", snaps[true], snaps[false])
			}
		})
	}
}
