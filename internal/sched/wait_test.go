package sched_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

func hareSystem(t *testing.T, parallel bool) *core.System {
	t.Helper()
	sys, err := core.New(core.Config{
		Cores: 4, Servers: 2, Timeshare: true, Techniques: core.AllTechniques(),
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	if err := sys.SetParallel(parallel); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestProcWaitEitherEngine: Proc.Wait over exec'd and forked children of a
// Hare process returns the last non-zero status and leaves the waiter's clock
// at the later of its own time and the latest exit, whichever engine runs.
func TestProcWaitEitherEngine(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		sys := hareSystem(t, parallel)
		var own, after sim.Cycles
		var ends []sim.Cycles
		h := sys.Procs().StartRoot(0, nil, func(p *sched.Proc) int {
			if err := p.FS.Mkdir("/w", fsapi.MkdirOpt{Distributed: true}); err != nil {
				return -1
			}
			var handles []*sched.Handle
			for i, status := range []int{0, 3, 0, 7, 0} {
				ch, err := p.Spawn(nil, func(wp *sched.Proc) int {
					wp.Compute(sim.Cycles(20_000 * (5 - i)))
					fd, err := wp.FS.Open("/w/f"+string(rune('a'+i)), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
					if err != nil || wp.FS.Close(fd) != nil {
						return -1
					}
					return status
				}, i%2 == 0)
				if err != nil {
					return -1
				}
				handles = append(handles, ch)
			}
			own = p.Now()
			status := p.Wait(handles...)
			after = p.Now()
			for _, ch := range handles {
				ends = append(ends, ch.EndTime())
			}
			// Back in the gate: the waiter's own traffic is served.
			if _, err := p.FS.Stat("/w/fa"); err != nil {
				return -1
			}
			return status
		})
		if status := h.Wait(); status != 7 {
			t.Fatalf("parallel=%v: Wait returned %d, want the last non-zero status 7", parallel, status)
		}
		if want := max(own, slices.Max(ends)); after != want {
			t.Fatalf("parallel=%v: clock %d after Wait, want max(own %d, exits %v) = %d", parallel, after, own, ends, want)
		}
	}
}

// TestProcWaitHoldsTheFloor: while a process is blocked in Proc.Wait its lane
// is out of the gate, and the exiting child — the exec proxy, for a remote
// one — brings it back before it leaves, so the floor never passes the time
// the waiter resumes at. The witnesses are a lane far ahead and a consumer
// parked on the gate between that time and it: a moment with parent and
// children all out of the gate would raise the floor past the consumer's
// arrival, and the gate signals a parked consumer exactly then.
func TestProcWaitHoldsTheFloor(t *testing.T) {
	const probe, ahead = sim.Cycles(1) << 30, sim.Cycles(1) << 40
	for _, remote := range []bool{false, true} {
		sys := hareSystem(t, true)
		g := sys.Network().Gate()
		g.Bump(int(sys.Network().NewEndpoint(0).ID), ahead)

		var mu sync.Mutex
		var signalled atomic.Bool
		probeWaiter := &sim.Waiter{Cond: sync.NewCond(&mu)}
		var early bool
		var resumed sim.Cycles
		h := sys.Procs().StartRoot(0, nil, func(p *sched.Proc) int {
			parked := make(chan bool)
			go func() {
				mu.Lock()
				defer mu.Unlock()
				if g.Park(probeWaiter, probe, false) {
					parked <- false
					return
				}
				parked <- true // mu is held until Wait: the signal cannot be lost
				probeWaiter.Cond.Wait()
				signalled.Store(true)
			}()
			if !<-parked {
				return 2 // the root's own lane should have kept the probe unsafe
			}
			var handles []*sched.Handle
			for i := 0; i < 3; i++ {
				ch, err := p.Spawn(nil, func(wp *sched.Proc) int {
					wp.Compute(sim.Cycles(50_000 * (i + 1)))
					_, err := wp.FS.Stat("/")
					time.Sleep(5 * time.Millisecond) // the parent is blocked by now
					if err != nil {
						return 1
					}
					return 0
				}, remote)
				if err != nil {
					return 1
				}
				handles = append(handles, ch)
			}
			status := p.Wait(handles...)
			early, resumed = signalled.Load(), p.Now()
			return status
		})
		if status := h.Wait(); status != 0 {
			t.Fatalf("remote=%v: root exited %d", remote, status)
		}
		if resumed >= probe {
			t.Fatalf("remote=%v: the waiter resumed at %d, not below the probe %d", remote, resumed, probe)
		}
		if early {
			t.Fatalf("remote=%v: the floor passed %d while the waiter, resuming at %d, was blocked", remote, probe, resumed)
		}
		// Every process has left the gate and only the lane ahead is in it:
		// now the probe is safe, and the witness must say so.
		for deadline := time.Now().Add(10 * time.Second); !signalled.Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("remote=%v: the probe was never signalled:\n%v", remote, g)
			}
		}
	}
}
