// Package msg implements Hare's message-passing layer.
//
// The layer provides the property the paper calls *atomic message delivery*:
// when Send returns, the message is already present in the receiver's queue.
// Hare's directory-cache invalidation protocol depends on this property —
// a server can proceed as soon as it has sent invalidations, and a client
// that drains its invalidation queue before using its cache is guaranteed to
// observe any invalidation that was sent before its lookup began.
//
// Queues are unbounded so that a sender never blocks; this mirrors the
// paper's shared-memory message queues and avoids any possibility of
// distributed deadlock between servers and clients.
package msg

import (
	"sync"

	"repro/internal/sim"
)

// qitem is one queued envelope plus its push sequence number (the FIFO key,
// and the tie-break for equal arrival times).
type qitem struct {
	env Envelope
	seq uint64
}

// Queue drain disciplines. FIFO orders by push sequence; arrival orders by
// (ArriveAt, push sequence); arrivalDet orders by (ArriveAt, Src, Seq),
// which depends only on virtual time and per-sender program order — the
// deterministic tie-break the parallel engine requires (push order is
// real-time order and varies run to run).
const (
	modeFIFO = iota
	modeArrival
	modeArrivalDet
)

// Queue is an unbounded multi-producer queue of Envelopes. TryPop/PopWait
// drain it FIFO; PopWaitEarliest drains it in virtual-arrival-time order.
//
// Storage is a binary min-heap over the backing slice, keyed by push
// sequence (FIFO mode) or by (ArriveAt, seq) (arrival mode). In FIFO mode
// the heap degenerates to an append-only ring: pushes carry increasing
// sequence numbers, so the sift-up terminates immediately and both push and
// pop cost O(log n) at worst. The first PopWaitEarliest re-heaps by arrival
// time once and subsequent pops are O(log n) — replacing the previous
// implementation's O(n) scan plus O(n) splice per pop. Popped slots are
// zeroed before the slice shrinks, so a drained queue retains no payload
// references (the old `items = items[1:]` reslice kept every popped payload
// alive until the backing array was abandoned).
//
// A Queue holds its condition variable in place and must not be copied; the
// zero value is not ready for use (NewQueue, or init for a queue held inside
// another object: an endpoint's two, a future's).
type Queue struct {
	mu      sync.Mutex
	cond    sync.Cond
	items   []qitem
	nextSeq uint64
	mode    uint8
	closed  bool

	// gated is the gate a consumer asleep in PopWaitEarliestGated answers to
	// (nil otherwise): Push then decides on the sleeper's behalf whether a
	// new head is safe. waiter is that consumer's registration with the
	// gate.
	gated  *sim.Gate
	waiter sim.Waiter

	// awaited says a requester is asleep in Future.Await on this (reply)
	// queue: the replier owes its lane a raise (pushReply). held says the
	// receiver of its request holds it (Network.Hold): the reply may resume
	// the requester's idle lane.
	awaited bool
	held    bool
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.init()
	return q
}

// init readies a zero queue where it lies: its condition variable and its
// gate registration both point into the queue itself.
func (q *Queue) init() {
	q.cond.L = &q.mu
	q.waiter.Cond = &q.cond
}

// less orders the heap: by push sequence in FIFO mode, by virtual arrival
// time (ties broken by push order, matching the old scan's stability) in
// arrival mode, and by (ArriveAt, Src, Seq) in deterministic-arrival mode.
func (q *Queue) less(i, j int) bool {
	switch q.mode {
	case modeArrival:
		a, b := &q.items[i], &q.items[j]
		if a.env.ArriveAt != b.env.ArriveAt {
			return a.env.ArriveAt < b.env.ArriveAt
		}
		return a.seq < b.seq
	case modeArrivalDet:
		a, b := &q.items[i], &q.items[j]
		if a.env.ArriveAt != b.env.ArriveAt {
			return a.env.ArriveAt < b.env.ArriveAt
		}
		if a.env.Src != b.env.Src {
			return a.env.Src < b.env.Src
		}
		return a.env.Seq < b.env.Seq
	default:
		return q.items[i].seq < q.items[j].seq
	}
}

func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue) siftDown(i int) {
	n := len(q.items)
	for {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		q.items[i], q.items[least] = q.items[least], q.items[i]
		i = least
	}
}

// setMode switches the heap ordering, re-heapifying when it changes. A queue
// is in practice drained by one discipline (server inboxes by arrival time,
// reply and callback queues FIFO), so the switch happens at most once.
func (q *Queue) setMode(mode uint8) {
	if q.mode == mode {
		return
	}
	q.mode = mode
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// shrinkCap is the backing-array capacity above which a drained queue
// releases its array to the GC: one burst (a broadcast fan-in, a recovery
// backlog) must not pin a large array — and through its envelope slots,
// their payload buffers — for the rest of the run.
const shrinkCap = 1024

// popRoot removes and returns the heap minimum. The vacated tail slot is
// zeroed so the backing array drops its reference to the popped payload.
// The caller must hold q.mu and ensure the queue is non-empty.
func (q *Queue) popRoot() Envelope {
	e := q.items[0].env
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = qitem{}
	q.items = q.items[:n]
	q.siftDown(0)
	if n == 0 && cap(q.items) > shrinkCap {
		q.items = nil
	}
	return e
}

// recycle prepares a queue for reuse from a pool: any leftover envelopes are
// dropped, the closed state is cleared, and an oversized backing array is
// released.
func (q *Queue) recycle() {
	q.mu.Lock()
	for i := range q.items {
		q.items[i] = qitem{}
	}
	q.items = q.items[:0]
	if cap(q.items) > shrinkCap {
		q.items = nil
	}
	q.closed = false
	q.held = false
	q.mode = modeFIFO
	q.mu.Unlock()
}

// Push appends an envelope to the queue. Push never blocks; by the time it
// returns the envelope is visible to Pop/PopWait (atomic delivery).
func (q *Queue) Push(e Envelope) {
	if q.push(e) {
		q.offerHead()
	}
}

// push is Push, except that a gated sleeper, which only a new head concerns,
// is left to the caller: offer reports that it owes the sleeper an offerHead.
func (q *Queue) push(e Envelope) (offer bool) {
	q.mu.Lock()
	seq := q.add(e)
	gated := q.gated != nil
	offer = gated && q.items[0].seq == seq
	q.mu.Unlock()
	if !gated {
		q.cond.Signal()
	}
	return offer
}

// pushOpen is Push for a queue no gated consumer sleeps on, refused once the
// queue is closed: it reports whether e was queued.
func (q *Queue) pushOpen(e Envelope) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.add(e)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// add queues e under q.mu and returns its push sequence number.
func (q *Queue) add(e Envelope) uint64 {
	seq := q.nextSeq
	q.items = append(q.items, qitem{env: e, seq: seq})
	q.nextSeq++
	q.siftUp(len(q.items) - 1)
	return seq
}

// offerHead wakes the gated sleeper, if there still is one, once the gate
// allows its head; until then the sleeper's registration moves to the head's
// arrival and it sleeps on.
func (q *Queue) offerHead() {
	q.mu.Lock()
	g := q.gated
	wake := g != nil && len(q.items) > 0 && q.headSafe(g, false)
	q.mu.Unlock()
	if wake {
		g.NoteSafePush()
		q.cond.Signal()
	}
}

// pushReply is Push for a reply under the parallel engine. A requester
// asleep in Await on this queue cannot wake before the lock is released, so
// here, and only here, the replier may raise its lane to the reply's arrival
// (any reply's: the sleeper consumes it). Another lane is at most resumed,
// and only when its request was held.
func (q *Queue) pushReply(e Envelope, g *sim.Gate, resume bool) {
	q.mu.Lock()
	if q.awaited {
		q.awaited = false
		g.Replied(int(e.Dst), e.ArriveAt)
	} else if q.held && resume {
		g.Resume(int(e.Dst), e.ArriveAt)
	}
	q.held = false
	q.add(e)
	q.mu.Unlock()
	q.cond.Signal()
}

// hold marks the queue's request held (Network.Hold).
func (q *Queue) hold() {
	q.mu.Lock()
	q.held = true
	q.mu.Unlock()
}

// TryPop removes and returns the oldest envelope, if any.
func (q *Queue) TryPop() (Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Envelope{}, false
	}
	q.setMode(modeFIFO)
	return q.popRoot(), true
}

// PopWait blocks until an envelope is available or the queue is closed. The
// second return value is false only when the queue has been closed and
// drained.
func (q *Queue) PopWait() (Envelope, bool) { return q.popWait(false) }

// popWait is PopWait; awaited marks the sleep as Future.Await's.
func (q *Queue) popWait(awaited bool) (Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.awaited = awaited
		q.cond.Wait()
	}
	q.awaited = false
	if len(q.items) == 0 {
		return Envelope{}, false
	}
	q.setMode(modeFIFO)
	return q.popRoot(), true
}

// PopWaitEarliest blocks until an envelope is available and returns the one
// with the smallest virtual arrival time among those currently queued (ties
// in push order). File servers drain their inbox with it so that requests
// queued concurrently are served in virtual-time order, which keeps the
// queueing model accurate even when goroutine scheduling delivers them out
// of order.
func (q *Queue) PopWaitEarliest() (Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return Envelope{}, false
	}
	q.setMode(modeArrival)
	return q.popRoot(), true
}

// PopWaitEarliestGated is PopWaitEarliest under the parallel engine: it
// returns the earliest queued arrival only once the gate confirms no
// earlier arrival can still appear. Ties are broken by (Src, Seq) —
// deterministic across runs — instead of push order. A nil gate falls back
// to PopWaitEarliest.
//
// The consumer sleeps until its head arrival is safe and is signalled exactly
// then: by the gate when the floor passes the time it parked at, by the
// sender of a new head that is already safe (offerHead), or by Close.
func (q *Queue) PopWaitEarliestGated(g *sim.Gate) (Envelope, bool) {
	if g == nil {
		return q.PopWaitEarliest()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// Before the first sleep, so that a Push sees the true head.
	q.setMode(modeArrivalDet)
	// A closed queue bypasses the gate: the consumer is stopping and its loop
	// must regain control to exit, exactly as the ungated path unblocks on
	// Close.
	woke := false
	for !q.closed && (len(q.items) == 0 || !q.headSafe(g, woke)) {
		q.gated = g
		q.cond.Wait()
		q.gated = nil
		woke = true
	}
	if woke {
		// Unless the gate's signal woke us, we or an offerHead may have left
		// the waiter parked.
		g.Unpark(&q.waiter)
	}
	if len(q.items) == 0 {
		return Envelope{}, false
	}
	return q.popRoot(), true
}

// headSafe reports whether the gate allows the head to be served; if not, the
// consumer's waiter is left parked at the head's arrival time. The caller
// holds q.mu, and the consumer keeps holding it until it sleeps (see
// sim.Gate.Park for why that ordering cannot lose a wake-up).
func (q *Queue) headSafe(g *sim.Gate, repark bool) bool {
	at := q.items[0].env.ArriveAt
	return g.SafeAt(at) || g.Park(&q.waiter, at, repark)
}

// Len returns the number of queued envelopes.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close wakes all waiters; subsequent PopWait calls return false once the
// queue is drained.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Reopen clears the closed state so PopWait blocks again. A recovered file
// server reopens its inbox: envelopes pushed while it was down (Push never
// blocks or fails) are still queued and get served after recovery, so
// clients of a crashed server stall rather than error.
func (q *Queue) Reopen() {
	q.mu.Lock()
	q.closed = false
	q.mu.Unlock()
}
