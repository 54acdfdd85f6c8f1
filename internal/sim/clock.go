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

// Machine bundles a topology and a cost model.
//
// Performance accounting follows a queueing approximation (DESIGN.md §4):
// every entity (application process, file server, scheduling server) owns a
// virtual clock, servers serialize the requests they process, and messages
// pay topology-dependent latency. Execute charges work to an entity without
// modelling preemption between co-located entities; the cost of sharing a
// core with a file server (the timeshare configuration) is charged
// explicitly per RPC as context-switch and cache-pollution cycles, following
// the paper's own measurement of that overhead (§5.3.3).
type Machine struct {
	Topo Topology
	Cost CostModel
}

// NewMachine builds a Machine with the given topology and cost model.
func NewMachine(topo Topology, cost CostModel) *Machine {
	return &Machine{Topo: topo, Cost: cost}
}

// Execute charges d cycles of work that became ready at `ready` on the given
// core and returns the completion time. Work on the same core by different
// entities does not delay each other here (see the type comment).
func (m *Machine) Execute(core int, ready, d Cycles) Cycles {
	return ready + d
}
