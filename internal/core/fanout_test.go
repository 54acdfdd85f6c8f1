package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/stats"
)

// fanoutLoads runs the shape of the repository benchmark's fan-out on 64
// cores and 64 servers: one root process makes every worker's subtree root
// in a distributed directory, then one worker per core fills its own subtree
// (one directory, files created and closed, every eighth stat'ed). It
// returns the requests each server served during the fan-out.
func fanoutLoads(t *testing.T, parallel bool) []uint64 {
	t.Helper()
	const workers, files = 64, 24
	sys, err := New(Config{Cores: workers, Servers: workers, Timeshare: true, Techniques: AllTechniques(),
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	run := func(fn sched.ProcFunc) {
		t.Helper()
		if status := sys.Procs().StartRoot(sys.AppCores()[0], []string{"fanout"}, fn).Wait(); status != 0 {
			t.Fatalf("a process exited with status %d", status)
		}
	}
	subtree := func(i int) string { return fmt.Sprintf("/scale/w%04d", i) }
	run(func(p *sched.Proc) int {
		if p.FS.Mkdir("/scale", fsapi.MkdirOpt{Distributed: true}) != nil {
			return 1
		}
		for i := 0; i < workers; i++ {
			if p.FS.Mkdir(subtree(i), fsapi.MkdirOpt{}) != nil {
				return 1
			}
		}
		return 0
	})
	if err := sys.SetParallel(parallel); err != nil {
		t.Fatal(err)
	}
	before := sys.ServerLoads()
	run(func(p *sched.Proc) int {
		handles := make([]*sched.Handle, workers)
		for i := range handles {
			dir := subtree(i) + "/d0000"
			h, err := p.Spawn([]string{"worker"}, func(wp *sched.Proc) int {
				fs := wp.FS
				if fs.Mkdir(dir, fsapi.MkdirOpt{}) != nil {
					return 1
				}
				for f := 0; f < files; f++ {
					fd, err := fs.Open(fmt.Sprintf("%s/f%03d", dir, f), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
					if err != nil || fs.Close(fd) != nil {
						return 1
					}
				}
				for f := 0; f < files; f += 8 {
					if _, err := fs.Stat(fmt.Sprintf("%s/f%03d", dir, f)); err != nil {
						return 1
					}
				}
				return 0
			}, true)
			if err != nil {
				return 1
			}
			handles[i] = h
		}
		return p.Wait(handles...)
	})
	loads := sys.ServerLoads()
	for i := range loads {
		loads[i] -= before[i]
	}
	return loads
}

// TestFanoutLoadIsAFunctionOfTheTuple: where creation affinity puts the
// subtree roots and the workers' directories follows from cores alone, so
// two serialized runs and a gated one load every server alike, and the
// busiest server's share stays where it was measured. When the designated
// nearby server was drawn from the client id, each run dealt the servers
// differently and the root's designated server took every subtree whose
// entry hashed off its socket: 9.28 times the mean here, 7.03 on the
// repository benchmark's fan-out.
func TestFanoutLoadIsAFunctionOfTheTuple(t *testing.T) {
	want := fanoutLoads(t, false)
	for _, parallel := range []bool{false, true} {
		if got := fanoutLoads(t, parallel); !reflect.DeepEqual(got, want) {
			t.Errorf("parallel %v: per-server requests\n%v\nwant\n%v", parallel, got, want)
		}
	}
	// Measured: 2.82, the root's designated server (server 0, which also
	// stores "/") the busiest.
	imb := stats.Imbalance(want)
	t.Logf("busiest server served %.2f times the mean: %v", imb, want)
	if imb > 2.83 {
		t.Errorf("busiest server served %.2f times the mean, want at most 2.82", imb)
	}
}
