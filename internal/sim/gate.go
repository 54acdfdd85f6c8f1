package sim

import (
	"math"
	"sync"
	"sync/atomic"
)

// Gate is the synchronization core of the parallel virtual-time engine
// (DESIGN.md §13). Every request-originating endpoint ("lane") publishes a
// conservative *frontier*: a lower bound on the virtual send time of any
// message it will send in the future. The minimum frontier over all active
// lanes is the *floor*. No message arrives sooner than the lookahead (the
// cost model's smallest message latency) after it is sent, and message
// delivery is atomic (a sent message is already queued), so every
// not-yet-sent message arrives at floor + lookahead or later: a server may
// serve the earliest queued request with arrival time a once
// floor + lookahead > a. The test is strict because equal arrivals are
// ordered by (Src, Seq), and a later send could win that tie.
//
// Frontier values per lane:
//   - absent (never joined): the lane does not constrain the system yet. A
//     lane joins at its first send; its first send time is always >= the
//     current floor (it was caused by an already-tracked lane), so joining
//     never lowers the effective minimum retroactively.
//   - finite t: the lane promises not to send before t. Updated monotonically
//     by sends (to SentAt) and by blocking RPCs (to the earliest time the
//     reply can arrive — the lane cannot wake, let alone send, before then).
//   - idle: the lane is quiescent — exited, parked on a reply whose timing
//     another lane controls (exec proxies, parked pipe ops), or waiting on
//     child processes. Idle lanes do not constrain the system; their next
//     send re-joins at its send time.
//
// The gate owns the floor: whoever changes a lane (Bump, Idle, Resume)
// maintains an indexed min-heap over the active lanes under one mutex and
// republishes the horizon — the largest safe arrival time — when the heap's
// root moves, so SafeAt is a single comparison. Consumers that find their
// head arrival unsafe Park a Waiter carrying that arrival time; a floor
// raise signals exactly the waiters it satisfies and nobody else.
//
// Serialized mode simply never installs a Gate; every call site gates on a
// nil *Gate and compiles to the legacy path, which stays bit-identical.
type Gate struct {
	mu sync.Mutex

	// lanes is a min-heap of the active lanes' ids by frontier; pos maps a
	// lane id to its heap slot plus one, or to laneAbsent / laneIdle. Only
	// joined lanes occupy a heap entry; an endpoint that never sends costs
	// at most its pos slot.
	lanes timeHeap[int32]
	pos   []int32

	// waiters is a min-heap of parked consumers by the arrival time they
	// wait for. Every registered waiter's time is beyond the horizon.
	waiters timeHeap[*Waiter]

	lookahead Cycles
	// hor is the published horizon; horizon mirrors it for lock-free SafeAt.
	hor     uint64
	horizon atomic.Uint64

	stats GateStats
}

const (
	laneAbsent = 0  // never joined
	laneIdle   = -1 // quiescent, does not constrain
)

// Waiter is a gated consumer's pre-allocated registration with the gate: the
// consumer embeds one, points Cond at the condition variable it sleeps on,
// and Parks it while its head arrival is unsafe.
type Waiter struct {
	// Cond is signalled, with Cond.L held, once the parked time is safe.
	Cond *sync.Cond

	idx int32 // gate-owned: heap slot plus one; 0 = not registered
}

// GateStats counts the gate's work since it was created. All counters are
// maintained under the gate's own mutex, which the counted paths hold anyway.
type GateStats struct {
	Lanes       int    `json:"lanes"`        // lanes that ever joined or idled
	Bumps       uint64 `json:"bumps"`        // Bump/Idle/Resume calls that moved a lane's frontier
	Recomputes  uint64 `json:"recomputes"`   // times the floor (hence the safe time) changed
	FloorRaises uint64 `json:"floor_raises"` // of those, the raises — the only events that can wake
	Parks       uint64 `json:"parks"`        // waiter registrations
	Wakes       uint64 `json:"wakes"`        // waiters signalled by a floor raise
	Reparks     uint64 `json:"reparks"`      // consumer wake-ups that parked again without popping
}

// Sub returns the work done since an earlier snapshot o (Lanes stays a total).
func (s GateStats) Sub(o GateStats) GateStats {
	s.Bumps -= o.Bumps
	s.Recomputes -= o.Recomputes
	s.FloorRaises -= o.FloorRaises
	s.Parks -= o.Parks
	s.Wakes -= o.Wakes
	s.Reparks -= o.Reparks
	return s
}

// NewGate returns an empty gate with no lookahead; lanes join lazily at
// their first Bump. msg.Network.SetGate supplies the cost model's lookahead.
func NewGate() *Gate {
	g := &Gate{hor: math.MaxUint64}
	g.horizon.Store(g.hor)
	g.lanes.moved = func(id int32, slot int) { g.pos[id] = int32(slot + 1) }
	g.waiters.moved = func(w *Waiter, slot int) { w.idx = int32(slot + 1) }
	return g
}

// SetLookahead declares that no message arrives sooner than l after it is
// sent. Call it before the gate is shared.
func (g *Gate) SetLookahead(l Cycles) {
	g.mu.Lock()
	g.lookahead = l
	g.settle()
}

// Lookahead returns the minimum message latency the gate assumes.
func (g *Gate) Lookahead() Cycles { return g.lookahead }

// state returns pos[id], growing the table to cover id.
func (g *Gate) state(id int) int32 {
	if id >= len(g.pos) {
		n := 2*len(g.pos) + 8
		if n <= id {
			n = id + 8
		}
		g.pos = append(g.pos, make([]int32, n-len(g.pos))...)
	}
	return g.pos[id]
}

// activate inserts lane id into the heap at frontier t.
func (g *Gate) activate(id int, t Cycles) {
	if g.pos[id] == laneAbsent {
		g.stats.Lanes++
	}
	g.lanes.push(t, int32(id))
}

// Bump raises lane id's frontier to at least t: the lane promises not to
// send any message with SentAt < t. A first Bump joins the lane; a Bump on
// an idle lane resumes it at t.
func (g *Gate) Bump(id int, t Cycles) {
	g.mu.Lock()
	if p := g.state(id); p > 0 {
		if g.lanes.ents[p-1].t >= t {
			g.mu.Unlock()
			return
		}
		g.lanes.rekey(int(p-1), t)
	} else {
		g.activate(id, t)
	}
	g.stats.Bumps++
	g.settle()
}

// Idle marks lane id quiescent: it no longer constrains the floor. The lane
// re-joins automatically at its next Bump.
func (g *Gate) Idle(id int) {
	g.mu.Lock()
	p := g.state(id)
	if p == laneIdle {
		g.mu.Unlock()
		return
	}
	if p == laneAbsent {
		g.stats.Lanes++
	} else {
		g.lanes.remove(int(p - 1))
	}
	g.pos[id] = laneIdle
	g.stats.Bumps++
	g.settle()
}

// Resume lowers an idle lane's frontier to t. It is called by a sender
// delivering the message that will wake the lane (a reply to a parked
// request): the woken lane cannot send before the wakeup arrives at t, and
// the waker's own frontier (<= t) holds the floor until this call, so the
// handoff never lets the safe time pass t unprotected. Active and absent
// lanes are unaffected — an active lane manages its own frontier.
func (g *Gate) Resume(id int, t Cycles) {
	g.mu.Lock()
	if g.state(id) != laneIdle {
		g.mu.Unlock()
		return
	}
	g.activate(id, t)
	g.stats.Bumps++
	g.settle()
}

// SafeAt reports whether a request arriving at t can be served knowing no
// earlier arrival will appear: floor + lookahead > t, or no lane is active.
// With no lookahead the test is floor >= t.
func (g *Gate) SafeAt(t Cycles) bool {
	return uint64(t) <= g.horizon.Load()
}

// Park registers w to be signalled once t is safe, or moves its registration
// to t if it is already parked. It returns true, leaving w unregistered,
// when t is safe already — the caller must not sleep then. The caller holds
// w.Cond.L from before the call until its Cond.Wait, which is what closes
// the lost-wake-up window: the safety check and the registration are one
// critical section of the gate, and the gate signals a waiter only with
// w.Cond.L held, i.e. after the caller is inside Wait. repark says the
// caller was woken and is going back to sleep without having popped.
func (g *Gate) Park(w *Waiter, t Cycles, repark bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if uint64(t) <= g.hor {
		g.dropWaiter(w)
		return true
	}
	if repark {
		g.stats.Reparks++
	}
	if w.idx == 0 {
		g.stats.Parks++
		g.waiters.push(t, w)
	} else {
		g.waiters.rekey(int(w.idx-1), t)
	}
	return false
}

// Unpark withdraws w's registration, if it still has one. A consumer calls
// it when it stops waiting for any reason other than the gate's signal.
func (g *Gate) Unpark(w *Waiter) {
	g.mu.Lock()
	g.dropWaiter(w)
	g.mu.Unlock()
}

func (g *Gate) dropWaiter(w *Waiter) {
	if w.idx != 0 {
		g.waiters.remove(int(w.idx - 1))
		w.idx = 0
	}
}

// settle is called with g.mu held after any change to the lanes. It
// republishes the horizon if the floor moved, releases g.mu, and signals the
// waiters a raise satisfied — after the unlock, because a waiter's lock
// orders before the gate's (Park is called with it held).
func (g *Gate) settle() {
	hor := uint64(math.MaxUint64)
	if g.lanes.len() > 0 {
		// A lookahead below one cycle keeps the floor >= t rule.
		floor, slack := uint64(g.lanes.ents[0].t), uint64(g.lookahead)
		if slack > 0 {
			slack--
		}
		if hor-floor > slack {
			hor = floor + slack
		}
	}
	if hor == g.hor {
		g.mu.Unlock()
		return
	}
	raised := hor > g.hor
	g.hor = hor
	g.horizon.Store(hor)
	g.stats.Recomputes++
	if !raised {
		g.mu.Unlock()
		return
	}
	g.stats.FloorRaises++
	var batch [8]*Waiter
	for {
		n := 0
		for n < len(batch) && g.waiters.len() > 0 && uint64(g.waiters.ents[0].t) <= g.hor {
			batch[n] = g.waiters.ents[0].v
			g.dropWaiter(batch[n])
			n++
		}
		g.stats.Wakes += uint64(n)
		g.mu.Unlock()
		for _, w := range batch[:n] {
			w.Cond.L.Lock()
			w.Cond.Signal()
			w.Cond.L.Unlock()
		}
		if n < len(batch) {
			return
		}
		g.mu.Lock()
	}
}

// Stats returns a snapshot of the gate's counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
