package sched

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/baseline/ramfs"
	"repro/internal/fsapi"
	"repro/internal/sim"
)

// smpSystem builds an SMP process system over a fresh ramfs for tests that
// only need the generic process layer (the Hare-specific exec protocol is
// exercised end-to-end by internal/core and internal/workload tests).
func smpSystem(cores int) (*SMPSystem, *ramfs.FS) {
	machine := sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())
	fs := ramfs.New(machine)
	appCores := make([]int, cores)
	for i := range appCores {
		appCores[i] = i
	}
	sys := NewSMPSystem(SMPConfig{
		Machine:  machine,
		AppCores: appCores,
		Policy:   PolicyRoundRobin,
		NewClient: func(c int) fsapi.Client {
			return fs.NewClient(c)
		},
	})
	return sys, fs
}

func TestSMPStartRootAndWait(t *testing.T) {
	sys, _ := smpSystem(2)
	h := sys.StartRoot(0, []string{"root"}, func(p *Proc) int {
		p.Compute(1000)
		if p.Core() != 0 {
			return 1
		}
		if len(p.Args) != 1 || p.Args[0] != "root" {
			return 2
		}
		return 42
	})
	if status := h.Wait(); status != 42 {
		t.Fatalf("exit status %d", status)
	}
	if h.EndTime() == 0 {
		t.Fatal("end time not recorded")
	}
	if sys.MaxEndTime() < h.EndTime() {
		t.Fatal("MaxEndTime not updated")
	}
	if h.PID() == 0 {
		t.Fatal("pid not assigned")
	}
}

func TestSMPSpawnPlacementRoundRobin(t *testing.T) {
	sys, _ := smpSystem(4)
	var mu sync.Mutex
	cores := map[int]int{}
	h := sys.StartRoot(0, nil, func(p *Proc) int {
		var handles []*Handle
		for i := 0; i < 8; i++ {
			ch, err := p.Spawn(nil, func(wp *Proc) int {
				mu.Lock()
				cores[wp.Core()]++
				mu.Unlock()
				return 0
			}, true)
			if err != nil {
				return 1
			}
			handles = append(handles, ch)
		}
		for _, ch := range handles {
			ch.Wait()
		}
		return 0
	})
	if h.Wait() != 0 {
		t.Fatal("root failed")
	}
	if len(cores) != 4 {
		t.Fatalf("round robin used %d cores, want 4: %v", len(cores), cores)
	}
	for c, n := range cores {
		if n != 2 {
			t.Fatalf("core %d ran %d workers, want 2", c, n)
		}
	}
}

func TestSMPSpawnLocalKeepsCore(t *testing.T) {
	sys, _ := smpSystem(4)
	h := sys.StartRoot(2, nil, func(p *Proc) int {
		ch, err := p.Spawn(nil, func(wp *Proc) int {
			if wp.Core() != 2 {
				return 1
			}
			return 0
		}, false)
		if err != nil {
			return 1
		}
		return ch.Wait()
	})
	if h.Wait() != 0 {
		t.Fatal("local spawn moved cores")
	}
}

func TestSMPSpawnInheritsClockAndDescriptors(t *testing.T) {
	sys, _ := smpSystem(2)
	h := sys.StartRoot(0, nil, func(p *Proc) int {
		fd, err := p.FS.Open("/x", fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
		if err != nil {
			return 1
		}
		if _, err := p.FS.Write(fd, []byte("parent")); err != nil {
			return 1
		}
		p.Compute(50_000)
		before := p.Now()
		ch, err := p.Spawn(nil, func(wp *Proc) int {
			// The child's clock starts after the parent's fork point.
			if wp.Now() < before {
				return 1
			}
			// The descriptor (and its offset) is shared.
			buf := make([]byte, 6)
			if _, err := wp.FS.Seek(fd, 0, fsapi.SeekSet); err != nil {
				return 2
			}
			if n, err := wp.FS.Read(fd, buf); err != nil || string(buf[:n]) != "parent" {
				return 3
			}
			return 0
		}, true)
		if err != nil {
			return 1
		}
		return ch.Wait()
	})
	if status := h.Wait(); status != 0 {
		t.Fatalf("child status %d", status)
	}
}

func TestProcKill(t *testing.T) {
	sys, _ := smpSystem(1)
	h := sys.StartRoot(0, nil, func(p *Proc) int {
		if p.Killed() {
			return 1
		}
		p.Kill()
		if !p.Killed() {
			return 2
		}
		return 0
	})
	if h.Wait() != 0 {
		t.Fatal("signal flag behaviour wrong")
	}
}

func TestPlacerPolicies(t *testing.T) {
	cores := []int{0, 1, 2, 3}
	rr := newPlacer(PolicyRoundRobin, cores, 0)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[rr.pick(0)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round robin covered %d cores", len(seen))
	}

	local := newPlacer(PolicyLocal, cores, 0)
	if got := local.pick(2); got != 2 {
		t.Fatalf("local policy picked %d", got)
	}

	const randomSeed = 12345
	t.Logf("random-placer seed: %d", randomSeed)
	random := newPlacer(PolicyRandom, cores, randomSeed)
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		c := random.pick(0)
		if c < 0 || c > 3 {
			t.Fatalf("random picked invalid core %d", c)
		}
		counts[c]++
	}
	if len(counts) < 3 {
		t.Fatalf("random policy poorly spread: %v", counts)
	}

	empty := newPlacer(PolicyRoundRobin, nil, 0)
	if got := empty.pick(5); got != 5 {
		t.Fatalf("empty placer should stay local, got %d", got)
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		PolicyRoundRobin: "round-robin",
		PolicyRandom:     "random",
		PolicyLocal:      "local",
		Policy(99):       "unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q", p, p.String())
		}
	}
}

func TestEndTrackerAndPidAllocator(t *testing.T) {
	var tr endTracker
	tr.record(100)
	tr.record(50)
	if tr.maxEnd() != 100 {
		t.Fatalf("maxEnd = %d", tr.maxEnd())
	}
	var pids pidAllocator
	a, b := pids.alloc(), pids.alloc()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("pid allocation broken: %d %d", a, b)
	}
}

func TestHandleWaitIsReusable(t *testing.T) {
	h := newHandle(1)
	go h.finish(7, 1234)
	if h.Wait() != 7 || h.Wait() != 7 {
		t.Fatal("Wait should return the same status every time")
	}
	if h.EndTime() != 1234 {
		t.Fatal("EndTime wrong")
	}
}

// TestProcWaitBaselineClient: with a client that only carries a clock (the
// baselines never run under the gate) Proc.Wait still is waitpid — the last
// non-zero status, and the caller's clock at the later of its own time and
// the latest exit.
func TestProcWaitBaselineClient(t *testing.T) {
	sys, _ := smpSystem(2)
	for _, ahead := range []bool{false, true} {
		var own, after sim.Cycles
		var ends []sim.Cycles
		h := sys.StartRoot(0, nil, func(p *Proc) int {
			var handles []*Handle
			for i, status := range []int{2, 0, 5, 0} {
				ch, err := p.Spawn(nil, func(wp *Proc) int {
					wp.Compute(sim.Cycles(10_000 * (4 - i)))
					return status
				}, true)
				if err != nil {
					return -1
				}
				handles = append(handles, ch)
			}
			if ahead {
				p.Compute(1_000_000) // the waiter is past every exit already
			}
			own = p.Now()
			status := p.Wait(handles...)
			after = p.Now()
			for _, ch := range handles {
				ends = append(ends, ch.EndTime())
			}
			return status
		})
		if status := h.Wait(); status != 5 {
			t.Fatalf("Wait returned %d, want the last non-zero status 5", status)
		}
		if want := max(own, slices.Max(ends)); after != want {
			t.Fatalf("ahead=%v: clock %d after Wait, want max(own %d, exits %v) = %d", ahead, after, own, ends, want)
		}
		if (own > slices.Max(ends)) != ahead {
			t.Fatalf("ahead=%v but own %d, exits %v: the case did not run", ahead, own, ends)
		}
	}
}
