package workload

import (
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// coreControl adapts core.System to FaultInjector and ElasticController for
// tests (the bench package carries the same adapter for the harness).
type coreControl struct{ *core.System }

func (s coreControl) Checkpoint(cli fsapi.Client, server int) error {
	return s.System.Checkpoint(cli.(*client.Client), server)
}
func (s coreControl) Crash(cli fsapi.Client, server int) error {
	return s.System.Crash(cli.(*client.Client), server)
}
func (s coreControl) Recover(cli fsapi.Client, server int) error {
	_, err := s.System.Recover(cli.(*client.Client), server)
	return err
}
func (s coreControl) AddServer(cli fsapi.Client) (int, error) {
	return s.System.AddServer(cli.(*client.Client))
}
func (s coreControl) RemoveServer(cli fsapi.Client, id int) error {
	return s.System.RemoveServer(cli.(*client.Client), id)
}

// durableEnv builds a Hare deployment with durability on and an Env whose
// Faults field targets it.
func durableEnv(t *testing.T, cores int, d core.Durability) (*Env, func()) {
	t.Helper()
	d.Enabled = true
	sys, err := core.New(core.Config{
		Cores:            cores,
		Servers:          cores,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 32 << 20,
		Durability:       d,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	env := &Env{
		Procs:   sys.Procs(),
		Cores:   sys.AppCores(),
		Counter: NewOpCounter(),
		Scale:   1,
		Faults:  coreControl{sys},
	}
	return env, sys.Stop
}

func TestCrashRecoveryWorkload(t *testing.T) {
	env, stop := durableEnv(t, 4, core.Durability{})
	defer stop()
	w := CrashRecovery{}
	runOne(t, env, w)
}

func TestCrashRecoveryWorkloadWithAutoCheckpoints(t *testing.T) {
	env, stop := durableEnv(t, 2, core.Durability{CheckpointEvery: 8})
	defer stop()
	w := CrashRecovery{FilesPerRound: 4}
	runOne(t, env, w)
}

func TestCrashRecoveryRequiresFaultInjector(t *testing.T) {
	env, stop := hareEnv(t, 2) // durability off: no Faults
	defer stop()
	w := CrashRecovery{}
	if err := w.Setup(env); err == nil {
		t.Fatal("setup accepted a backend without fault injection")
	}
}

func TestCrashRecoveryRegistered(t *testing.T) {
	if _, ok := ByName("crash recovery"); !ok {
		t.Fatal("crash recovery workload not reachable via ByName")
	}
	for _, w := range All() {
		if w.Name() == "crash recovery" {
			t.Fatal("crash recovery must not be in All(): baselines cannot run it")
		}
	}
}
