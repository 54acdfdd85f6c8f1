// Package sched implements Hare's process layer: a process abstraction for
// the simulated machine, per-core scheduling servers, and the remote
// execution protocol (exec-as-RPC with proxy processes, §3.5).
//
// It also provides a shared-memory process system used by the baseline file
// systems (Linux ramfs and UNFS3 in the paper's evaluation), so that the
// same workloads can run against every backend.
package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/fsapi"
	"repro/internal/sim"
)

// ProcFunc is the body of a simulated process. It receives the process
// handle and returns an exit status.
type ProcFunc func(p *Proc) int

// Clocked is the part of a file system client that carries virtual time.
// Both the Hare client library and the baseline clients implement it.
type Clocked interface {
	Clock() sim.Cycles
	AdvanceClock(t sim.Cycles)
	Compute(d sim.Cycles)
}

// GateParker is the part of a client that lets its owner take its lane out
// of the parallel virtual-time engine and bring it back at the client's clock
// (DESIGN.md §13). The Hare client library implements it; the baselines,
// which never run under the gate, do not. Proc.Wait and Proc.Blocked are its
// users in this tree; the repository benchmark's own fan-out (benchmark/)
// binds it directly.
type GateParker interface {
	GateActive() bool
	GatePark()
	GateResume()
}

// Proc is one simulated process: a file system client pinned to a core plus
// process metadata.
type Proc struct {
	PID  int64
	Args []string
	FS   fsapi.Client

	core   int
	sys    System
	killed atomic.Bool
}

// Core returns the core the process runs on.
func (p *Proc) Core() int { return p.core }

// System returns the process system that created this process.
func (p *Proc) System() System { return p.sys }

// Compute charges CPU time to the process (it advances the process's virtual
// clock through its file system client).
func (p *Proc) Compute(d sim.Cycles) {
	if ck, ok := p.FS.(Clocked); ok {
		ck.Compute(d)
	}
}

// Now returns the process's current virtual time.
func (p *Proc) Now() sim.Cycles {
	if ck, ok := p.FS.(Clocked); ok {
		return ck.Clock()
	}
	return 0
}

// Kill delivers a terminal signal to the process. The process observes it by
// polling Killed (cooperative, like the paper's prototype which forwards
// signals through proxy processes).
func (p *Proc) Kill() { p.killed.Store(true) }

// Killed reports whether a terminal signal has been delivered.
func (p *Proc) Killed() bool { return p.killed.Load() }

// Spawn creates a child process running fn. When remote is true the process
// system may place the child on another core according to its placement
// policy (Hare implements this with an exec RPC to a scheduling server);
// when false the child runs on the parent's core (plain fork).
func (p *Proc) Spawn(args []string, fn ProcFunc, remote bool) (*Handle, error) {
	return p.sys.Spawn(p, args, fn, remote)
}

// Wait is waitpid: it blocks until every one of the given processes has
// exited, leaves the caller's clock at the latest of its own time and their
// exits — under either engine — and returns the last non-zero exit status.
//
// Under the parallel engine the caller's lane is quiescent while it is
// blocked in real time, and it is the exiting process that brings it back, at
// its own end and before it leaves the gate (HareSystem.run): the safe-time
// floor cannot pass the time the caller resumes at. A process that has
// already exited is reaped without leaving the gate at all.
func (p *Proc) Wait(handles ...*Handle) int {
	gp, _ := p.FS.(GateParker)
	status := 0
	for _, h := range handles {
		h.mu.Lock()
		if !h.exited && gp != nil && gp.GateActive() {
			gp.GatePark()
			h.waiter = p
		}
		h.mu.Unlock()
		if s := h.Wait(); s != 0 {
			status = s
		}
		p.resumeAt(h.endAt, false)
	}
	return status
}

// Blocked runs wait with the process's lane quiescent: the process is blocked
// in real time on something the host decides — control-plane calls made on
// its behalf, children reaped from outside — and wait returns the virtual
// time that ended at. The clock is brought there under either engine and the
// lane comes back at it. Whatever ran meanwhile must be done by then: nobody
// holds the floor for the caller, as an exiting child does in Wait.
func (p *Proc) Blocked(wait func() sim.Cycles) {
	gp, _ := p.FS.(GateParker)
	gated := gp != nil && gp.GateActive()
	if gated {
		gp.GatePark()
	}
	p.resumeAt(wait(), gated)
}

// resumeAt brings the process's clock to at least t and, with rejoin, its
// lane back at it.
func (p *Proc) resumeAt(t sim.Cycles, rejoin bool) {
	if ck, ok := p.FS.(Clocked); ok {
		ck.AdvanceClock(t)
	}
	if rejoin {
		p.FS.(GateParker).GateResume()
	}
}

// Handle allows waiting for a process to exit.
type Handle struct {
	pid  int64
	done sync.WaitGroup // released by finish

	// mu orders an exit against a Proc.Wait registering for it.
	mu     sync.Mutex
	exited bool
	status int
	endAt  sim.Cycles
	waiter *Proc // blocked in Proc.Wait with its lane parked
}

// newHandle creates an unfinished handle.
func newHandle(pid int64) *Handle {
	h := &Handle{pid: pid}
	h.done.Add(1)
	return h
}

// finish records the exit status and completion time, brings a process
// parked in Proc.Wait back at that time — the caller, still in the gate at or
// below it, holds the floor under the rejoin — and releases waiters.
func (h *Handle) finish(status int, endAt sim.Cycles) {
	h.mu.Lock()
	h.exited, h.status, h.endAt = true, status, endAt
	if h.waiter != nil {
		h.waiter.resumeAt(endAt, true)
	}
	h.mu.Unlock()
	h.done.Done()
}

// started: a handle owns its process (HareSystem.run) with nothing to do at
// its first step.
func (h *Handle) started() {}

// PID returns the process id.
func (h *Handle) PID() int64 { return h.pid }

// Wait blocks until the process exits and returns its exit status. It is the
// host-side call — a harness waiting for a root it started. A process waits
// for its children with Proc.Wait, which also keeps virtual time.
func (h *Handle) Wait() int {
	h.done.Wait()
	return h.status
}

// EndTime returns the virtual time at which the process exited (only valid
// after Wait has returned).
func (h *Handle) EndTime() sim.Cycles { return h.endAt }

// System creates and places processes.
type System interface {
	// StartRoot launches an initial process on the given core.
	StartRoot(core int, args []string, fn ProcFunc) *Handle
	// Spawn creates a child of parent (see Proc.Spawn).
	Spawn(parent *Proc, args []string, fn ProcFunc, remote bool) (*Handle, error)
	// MaxEndTime returns the latest virtual completion time over all
	// processes that have exited so far.
	MaxEndTime() sim.Cycles
}

// endTracker aggregates process completion times.
type endTracker struct {
	mu  sync.Mutex
	max sim.Cycles
}

func (t *endTracker) record(end sim.Cycles) {
	t.mu.Lock()
	if end > t.max {
		t.max = end
	}
	t.mu.Unlock()
}

func (t *endTracker) maxEnd() sim.Cycles {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.max
}

// pidAllocator hands out process ids.
type pidAllocator struct{ next atomic.Int64 }

func (a *pidAllocator) alloc() int64 { return a.next.Add(1) }
