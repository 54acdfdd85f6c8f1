package sim

import "sync/atomic"

// Clock is the virtual clock of one simulated entity (process or server).
// A Clock is owned by a single goroutine; reads from other goroutines (for
// reporting) use Now which is safe.
type Clock struct {
	now atomic.Uint64
}

// Now returns the current virtual time.
func (c *Clock) Now() Cycles { return Cycles(c.now.Load()) }

// Advance moves the clock forward by d cycles and returns the new time.
func (c *Clock) Advance(d Cycles) Cycles {
	return Cycles(c.now.Add(uint64(d)))
}

// AdvanceTo moves the clock to at least t (it never moves backwards) and
// returns the resulting time.
func (c *Clock) AdvanceTo(t Cycles) Cycles {
	for {
		cur := c.now.Load()
		if uint64(t) <= cur {
			return Cycles(cur)
		}
		if c.now.CompareAndSwap(cur, uint64(t)) {
			return t
		}
	}
}

// Reset sets the clock back to zero.
func (c *Clock) Reset() { c.now.Store(0) }

// CoreTime counts the work charged to one core, for utilization reporting.
// It does not serialize the entities pinned to the core: see Machine. Each
// sits on a cache line of its own: every Execute adds to one, from whichever
// goroutine charges that core, and counters allocated back to back would
// share a line.
type CoreTime struct {
	total atomic.Uint64
	_     [cacheLine - 8]byte
}

// cacheLine is the host's cache line size in bytes (64 on x86-64).
const cacheLine = 64

// Account records d cycles of work on the core without computing a
// completion time (used for utilization bookkeeping).
func (c *CoreTime) Account(d Cycles) { c.total.Add(uint64(d)) }

// Busy returns the total number of cycles executed on this core so far.
func (c *CoreTime) Busy() Cycles { return Cycles(c.total.Load()) }

// Reset clears the core's accounting.
func (c *CoreTime) Reset() { c.total.Store(0) }

// Machine bundles a topology, cost model, and per-core bookkeeping.
//
// Performance accounting follows a queueing approximation (DESIGN.md §4):
// every entity (application process, file server, scheduling server) owns a
// virtual clock, servers serialize the requests they process, and messages
// pay topology-dependent latency. Execute charges work to an entity without
// modelling preemption between co-located entities; the cost of sharing a
// core with a file server (the timeshare configuration) is charged
// explicitly per RPC as context-switch and cache-pollution cycles, following
// the paper's own measurement of that overhead (§5.3.3). The per-core Busy
// counters record how much work each core performed, which the harness can
// use to report utilization.
type Machine struct {
	Topo  Topology
	Cost  CostModel
	cores []*CoreTime
}

// NewMachine builds a Machine with the given topology and cost model.
func NewMachine(topo Topology, cost CostModel) *Machine {
	m := &Machine{Topo: topo, Cost: cost}
	m.cores = make([]*CoreTime, topo.NumCores)
	for i := range m.cores {
		m.cores[i] = &CoreTime{}
	}
	return m
}

// Core returns the execution bookkeeping for the given core id.
func (m *Machine) Core(id int) *CoreTime {
	return m.cores[id]
}

// Execute charges d cycles of work that became ready at `ready` on the given
// core and returns the completion time. Work on the same core by different
// entities does not delay each other here (see the type comment); the
// per-core busy counter is still updated for utilization reporting.
func (m *Machine) Execute(core int, ready, d Cycles) Cycles {
	if core >= 0 && core < len(m.cores) {
		m.cores[core].Account(d)
	}
	return ready + d
}

// Reset clears all core accounting, preparing the machine for another run.
func (m *Machine) Reset() {
	for _, c := range m.cores {
		c.Reset()
	}
}
