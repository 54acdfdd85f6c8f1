package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
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
//   - finite t: the lane promises not to send before t. Raised monotonically
//     by the lane itself (Sent, Await) and, while it is blocked on a reply,
//     by the replier, to that reply's real arrival (Replied).
//   - idle: the lane is quiescent — exited, parked on a reply whose timing
//     another lane controls (exec proxies, parked pipe ops), or waiting on
//     child processes. Idle lanes do not constrain the system; their next
//     send re-joins at its send time.
//
// The gate owns the floor: whoever changes a lane (a raise, Idle, Resume)
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

	stats      GateStats
	safePushes atomic.Uint64

	// audit, set only by tests (export_test.go), is shown every raise before
	// it takes effect: its kind, when the asker acts, the frontier asked for.
	audit func(ev auditEvent, id int, at, t Cycles)
}

type auditEvent uint8

const auditJoin, auditSent, auditAwait, auditReplied auditEvent = 0, 1, 2, 3

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
	// parked, guarded by Cond.L: registered by Park, not released since.
	parked bool
}

// GateStats counts the gate's work since it was created. All counters are
// maintained under the gate's own mutex, which the counted paths hold anyway.
type GateStats struct {
	Lanes       int    `json:"lanes"`        // lanes that ever joined or idled
	Locks       uint64 `json:"locks"`        // acquisitions of the gate's mutex
	Bumps       uint64 `json:"bumps"`        // calls that moved a lane's frontier
	Recomputes  uint64 `json:"recomputes"`   // times the floor (hence the safe time) changed
	FloorRaises uint64 `json:"floor_raises"` // of those, the raises — the only events that can wake
	Parks       uint64 `json:"parks"`        // waiter registrations
	Wakes       uint64 `json:"wakes"`        // waiters signalled by a floor raise
	Reparks     uint64 `json:"reparks"`      // consumer wake-ups that parked again without popping
	SafePushes  uint64 `json:"safe_pushes"`  // requests a sleeping consumer could serve the moment their sender offered them
}

// Sub returns the work done since an earlier snapshot o (Lanes stays a total).
func (s GateStats) Sub(o GateStats) GateStats {
	s.Locks -= o.Locks
	s.Bumps -= o.Bumps
	s.Recomputes -= o.Recomputes
	s.FloorRaises -= o.FloorRaises
	s.Parks -= o.Parks
	s.Wakes -= o.Wakes
	s.Reparks -= o.Reparks
	s.SafePushes -= o.SafePushes
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

func (g *Gate) lock() {
	g.mu.Lock()
	g.stats.Locks++
}

// SetLookahead declares that no message arrives sooner than l after it is
// sent. Call it before the gate is shared.
func (g *Gate) SetLookahead(l Cycles) {
	g.lock()
	g.lookahead = l
	g.settle()
}

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

// raise lifts lane id's frontier to at least t — joining an absent lane,
// resuming an idle one — and settles, which releases g.mu.
func (g *Gate) raise(ev auditEvent, id int, at, t Cycles) {
	if g.audit != nil {
		g.audit(ev, id, at, t)
	}
	if p := g.state(id); p > 0 {
		if g.lanes.ents[p-1].t >= t {
			g.mu.Unlock()
			return
		}
		g.lanes.rekey(int(p-1), t)
	} else {
		if p == laneAbsent {
			g.stats.Lanes++
		}
		g.lanes.push(t, int32(id))
	}
	g.stats.Bumps++
	g.settle()
}

// Bump raises lane id's frontier to at least t: the lane promises not to
// send any message with SentAt < t. A first Bump joins the lane; a Bump on
// an idle lane resumes it at t.
func (g *Gate) Bump(id int, t Cycles) {
	g.lock()
	g.raise(auditJoin, id, t, t)
}

// Sent is the Bump of a lane that sends a message stamped sentAt and will not
// send again before next: sentAt itself when it runs on, the earliest arrival
// of the reply when it blocks for one at once. It comes before the message is
// queued — except from an active lane about to block, whose frontier, at most
// sentAt, keeps the arrival unsafe at a gated receiver until a Sent after.
func (g *Gate) Sent(id int, sentAt, next Cycles) {
	g.lock()
	g.raise(auditSent, id, sentAt, next)
}

// Await is the Bump of a lane that blocks for a reply that cannot arrive
// before t.
func (g *Gate) Await(id int, t Cycles) {
	g.lock()
	g.raise(auditAwait, id, t, t)
}

// Replied raises lane id, blocked on a reply that arrives at t, to t: the
// lane resumes there and no sooner (an idle lane, its request parked, is
// resumed). The caller holds the lock of the queue the lane sleeps on, so the
// lane cannot have woken: a raise landing after it woke and idled would pin it.
func (g *Gate) Replied(id int, t Cycles) {
	g.lock()
	g.raise(auditReplied, id, t, t)
}

// Idle marks lane id quiescent: it no longer constrains the floor. The lane
// re-joins automatically at its next Bump.
func (g *Gate) Idle(id int) {
	g.lock()
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
	g.lock()
	if g.state(id) != laneIdle {
		g.mu.Unlock()
		return
	}
	g.raise(auditJoin, id, t, t)
}

// SafeAt reports whether a request arriving at t can be served knowing no
// earlier arrival will appear: floor + lookahead > t, or no lane is active.
// With no lookahead the test is floor >= t.
func (g *Gate) SafeAt(t Cycles) bool {
	return uint64(t) <= g.horizon.Load()
}

// NoteSafePush counts one GateStats.SafePushes.
func (g *Gate) NoteSafePush() { g.safePushes.Add(1) }

// Park registers w to be signalled once t is safe, or moves its registration
// to t if it is already parked. It returns true, leaving w unregistered,
// when t is safe already — the caller must not sleep then. The caller holds
// w.Cond.L from before the call until its Cond.Wait, which is what closes
// the lost-wake-up window: the safety check and the registration are one
// critical section of the gate, and the gate signals a waiter only with
// w.Cond.L held, i.e. after the caller is inside Wait. repark says the
// caller was woken and is going back to sleep without having popped.
func (g *Gate) Park(w *Waiter, t Cycles, repark bool) bool {
	g.lock()
	defer g.mu.Unlock()
	if uint64(t) <= g.hor {
		g.dropWaiter(w)
		w.parked = false
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
	w.parked = true
	return false
}

// Unpark withdraws w's registration. A consumer calls it, holding w.Cond.L,
// when it stops waiting; it is free when the gate's own signal ended the wait.
// (A signal overtaken by another wake-up and a new Park can leave a
// registration behind, at the price of a spurious signal.)
func (g *Gate) Unpark(w *Waiter) {
	if !w.parked {
		return
	}
	w.parked = false
	g.lock()
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
			w.parked = false
			w.Cond.Signal()
			w.Cond.L.Unlock()
		}
		if n < len(batch) {
			return
		}
		g.lock()
	}
}

// Stats returns a snapshot of the gate's counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.SafePushes = g.safePushes.Load()
	return st
}

// String is the gate's stall report: the horizon, the active lanes by
// frontier with the floor-holder first, and the arrival times the parked
// consumers wait for. A wedge reads as one lane far below the others and
// every consumer waiting just beyond the horizon. It takes the gate's mutex
// and sorts copies: for a test's deadline, not for any hot path.
func (g *Gate) String() string {
	const most = 16
	g.mu.Lock()
	lanes := slices.Clone(g.lanes.ents)
	waits := make([]Cycles, len(g.waiters.ents))
	for i, w := range g.waiters.ents {
		waits[i] = w.t
	}
	idle := 0
	for _, p := range g.pos {
		if p == laneIdle {
			idle++
		}
	}
	hor := g.hor
	g.mu.Unlock()
	slices.SortFunc(lanes, func(a, b timed[int32]) int { return cmp.Compare(a.t, b.t) })
	slices.Sort(waits)

	var b strings.Builder
	if len(lanes) == 0 {
		fmt.Fprintf(&b, "gate: no active lane (%d idle): every arrival is safe\n", idle)
	} else {
		fmt.Fprintf(&b, "gate: horizon %d; %d active lanes (%d idle), lowest first:\n", hor, len(lanes), idle)
	}
	for i, l := range lanes[:min(most, len(lanes))] {
		fmt.Fprintf(&b, "  lane %d at %d", l.v, l.t)
		if i == 0 {
			b.WriteString(" (holds the floor)")
		}
		b.WriteByte('\n')
	}
	if more := len(lanes) - most; more > 0 {
		fmt.Fprintf(&b, "  ... and %d more, up to %d\n", more, lanes[len(lanes)-1].t)
	}
	fmt.Fprintf(&b, "  %d parked consumers", len(waits))
	if len(waits) > 0 {
		fmt.Fprintf(&b, ", waiting for %v", waits[:min(most, len(waits))])
	}
	b.WriteByte('\n')
	return b.String()
}
