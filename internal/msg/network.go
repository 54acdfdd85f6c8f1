package msg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// EndpointID identifies a message endpoint (a file server, a scheduling
// server, or a client library instance).
type EndpointID int

// Envelope is one message in flight.
type Envelope struct {
	Src     EndpointID
	Dst     EndpointID
	Kind    uint16
	Payload []byte
	// Seq is the sender's per-endpoint send sequence number. Together with
	// Src it gives the parallel engine a tie-break for equal arrival times
	// that depends only on program order, not on real-time push order.
	Seq uint64
	// SentAt is the sender's virtual time when the message was sent;
	// ArriveAt is when it becomes visible at the receiver (SentAt plus
	// propagation latency).
	SentAt   sim.Cycles
	ArriveAt sim.Cycles
	// Reply, when non-nil, is where the receiver should push its response.
	// It models a reply capability carried in the request.
	Reply *Queue
	// dup marks a fault-injected duplicate: its surplus reply is abandoned by
	// the requester, so holding it marks nothing (Hold) and the reply never
	// resumes the requester's lane — the original's reply is the wakeup.
	dup bool
}

// Endpoint is one attachment point on the network. Each endpoint has a
// request inbox and a callback queue (used by Hare for directory-cache
// invalidations, which must not be interleaved with RPC replies), plus a
// free-list cache for payload buffers and futures (pool.go). Both queues are
// held in place — Inbox and Callbacks point at them — so that registering an
// endpoint, which every process does, makes one object.
type Endpoint struct {
	ID        EndpointID
	Core      int
	Inbox     *Queue
	Callbacks *Queue
	net       *Network

	inbox, callbacks Queue

	// Turnaround is the least virtual time between a request's arrival here
	// and its reply's departure (DESIGN.md §13, "Lookahead"). The owner sets
	// it before the endpoint's id reaches a sender; zero promises nothing.
	Turnaround sim.Cycles

	// Transient marks an out-of-band endpoint — a control plane, a failure
	// detector, a server's own sending side — whose lane constrains the gate
	// only while a call of its own is outstanding: Send and RPC idle it on the
	// way out, and a reply to a request it is not blocked on never brings it
	// back. Sound because every destination of such an endpoint pops ungated
	// or is sent to at its own clock, which is at or past everything it has
	// served (DESIGN.md §13). The owner sets it before the endpoint first sends.
	Transient bool

	// lane is the gate this endpoint's lane joined by a send of its own and
	// has not been idled on since (GateIdle): it need not join again.
	lane atomic.Pointer[sim.Gate]

	// client marks a client library's endpoint (NewClientEndpoint), the
	// kind a restarted server's cache flush reaches (LiveClients); left is
	// the virtual time it left the network at (Leave), never until then.
	client bool
	left   atomic.Uint64

	sendSeq atomic.Uint64
	cache   epCache
}

// never is the left time of an endpoint that has not left.
const never = ^sim.Cycles(0)

// Network routes envelopes between endpoints, applying topology-dependent
// latency and recording statistics.
type Network struct {
	machine *sim.Machine

	// endpoints is an append-only array indexed by EndpointID whose first
	// registered entries are published: registration writes the new slot
	// past the published count, then stores the count. The array doubles
	// when full and is swapped atomically, the copy holding every published
	// slot, so a run of n registrations copies O(n) pointers in all. Lookups
	// on the send path are lock-free; the mutex only serializes registration.
	mu         sync.Mutex
	endpoints  atomic.Pointer[[]*Endpoint]
	registered atomic.Int64

	stats Stats

	// faults, when non-nil, is the installed fault-injection plan
	// (deterministic delay jitter and duplicate delivery; see FaultPlan).
	faults atomic.Pointer[faultState]

	// gate, when non-nil, is the parallel virtual-time engine's
	// synchronization core. Serialized mode leaves it nil.
	gate atomic.Pointer[sim.Gate]
}

// Machine is what NewNetwork takes: the machine model, read by reference.
type Machine = *sim.Machine

// WrapMachine passes a *sim.Machine to NewNetwork.
func WrapMachine(m *sim.Machine) Machine { return m }

// Stats aggregates message counts.
type Stats struct {
	Messages  atomic.Uint64
	Bytes     atomic.Uint64
	Callbacks atomic.Uint64
	Requests  atomic.Uint64
}

// NewNetwork creates an empty network over the given machine model.
func NewNetwork(m Machine) *Network {
	n := &Network{machine: m}
	var eps []*Endpoint
	n.endpoints.Store(&eps)
	return n
}

// NewEndpoint registers a new endpoint pinned to the given core.
func (n *Network) NewEndpoint(core int) *Endpoint { return n.newEndpoint(core, false) }

// NewClientEndpoint registers a client library's endpoint, pinned to the
// given core: the one name servers know a client by. Its requests come from
// it, its callbacks go to it, and it leaves the network when its process
// exits (Leave).
func (n *Network) NewClientEndpoint(core int) *Endpoint { return n.newEndpoint(core, true) }

func (n *Network) newEndpoint(core int, client bool) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := EndpointID(n.registered.Load())
	ep := &Endpoint{ID: id, Core: core, net: n, client: client}
	ep.left.Store(uint64(never))
	ep.inbox.init()
	ep.callbacks.init()
	for i := range ep.cache.bufs {
		ep.cache.bufs[i] = ep.cache.bufSlot[i][:0]
	}
	ep.cache.futs = ep.cache.futSlot[:0]
	ep.Inbox, ep.Callbacks = &ep.inbox, &ep.callbacks
	eps := *n.endpoints.Load()
	if int(id) == len(eps) {
		grown := make([]*Endpoint, max(2*len(eps), 16))
		copy(grown, eps)
		n.endpoints.Store(&grown)
		eps = grown
	}
	eps[id] = ep
	n.registered.Store(int64(id) + 1)
	return ep
}

// lookup returns the endpoint with the given id without locking. The count
// is read first: the array read after it holds every slot it publishes.
func (n *Network) lookup(id EndpointID) *Endpoint {
	if id < 0 || int64(id) >= n.registered.Load() {
		return nil
	}
	return (*n.endpoints.Load())[id]
}

// Endpoint returns a registered endpoint by id.
func (n *Network) Endpoint(id EndpointID) (*Endpoint, bool) {
	ep := n.lookup(id)
	return ep, ep != nil
}

// Leave takes a client's endpoint off the network at virtual time at, the
// end of its process. The callbacks queued at it go back to their senders'
// caches, and a callback sent to it later is counted as any other, but its
// payload goes back at once: nobody is left to read it. Servers hear of no
// exit, so they charge such a callback as before (ROADMAP item 28).
func (n *Network) Leave(id EndpointID, at sim.Cycles) {
	ep := n.lookup(id)
	if ep == nil {
		return
	}
	ep.left.Store(uint64(at))
	ep.Callbacks.Close()
	for {
		env, ok := ep.Callbacks.TryPop()
		if !ok {
			return
		}
		n.ReleaseToSender(env)
	}
}

// LiveClients calls yield with every client endpoint that has not left by
// virtual time at, in ascending id. A restarted server flushes their
// directory caches in this order: each send advances its clock, so the
// order fixes when each client hears it.
func (n *Network) LiveClients(at sim.Cycles, yield func(EndpointID)) {
	count := n.registered.Load()
	eps := *n.endpoints.Load()
	for _, ep := range eps[:count] {
		if ep.client && sim.Cycles(ep.left.Load()) > at {
			yield(ep.ID)
		}
	}
}

// SetGate installs (or, with nil, removes) the parallel engine's gate.
// Install it only while the system is quiescent — no requests in flight —
// so every lane's first send after the switch joins cleanly. The gate's
// lookahead becomes the cost model's smallest message latency (in the
// default model MsgLatencySame); payload and fault-plan jitter only add to it.
func (n *Network) SetGate(g *sim.Gate) {
	if g != nil {
		g.SetLookahead(n.machine.Cost.MinMsgLatency())
	}
	n.gate.Store(g)
}

// Gate returns the installed gate, or nil in serialized mode.
func (n *Network) Gate() *sim.Gate { return n.gate.Load() }

// Hold is called by a receiver that keeps a request to answer it later (a
// parked pipe read, a lock waiter, an exec whose reply is the exit status):
// the sender's lane stops constraining the gate, and the reply brings it back
// at its arrival. Sound because the hold follows the pop — the sender is
// blocked on this very request — and whoever replies is active at or below
// the reply's send time until Reply has resumed the lane. Only a held
// request's reply resumes its sender: any other reply that finds the lane
// idle is one nobody awaits (a readahead the client dropped), and resuming
// for it would bring back a lane no goroutine drives. No-op in serialized
// mode.
func (n *Network) Hold(env Envelope) {
	if n.gate.Load() == nil {
		return
	}
	if env.Reply != nil && !env.dup {
		env.Reply.hold()
	}
	n.GateIdle(env.Src)
}

// GateIdle marks the endpoint's lane quiescent (it no longer constrains the
// parallel engine's safe time). No-op in serialized mode. It is for the
// owners of a lane's life — the process layer at exit and around a blocked
// wait, a bare client between operations; a receiver uses Hold, an
// out-of-band endpoint declares itself Transient.
func (n *Network) GateIdle(id EndpointID) {
	if g := n.gate.Load(); g != nil {
		g.Idle(int(id))
		// Unmarked after the idle, as send marks before the join: whichever
		// way the two race, a lane still marked has joined since.
		if ep := n.lookup(id); ep != nil {
			ep.lane.Store(nil)
		}
	}
}

// GateJoin raises (or first joins) the endpoint's lane frontier to t: the
// lane promises not to send before t. No-op in serialized mode. Callers must
// hold the safe-time floor below t while joining — either the system is
// quiescent, or the caller's own (active) lane frontier is <= t.
func (n *Network) GateJoin(id EndpointID, t sim.Cycles) {
	if g := n.gate.Load(); g != nil {
		g.Bump(int(id), t)
	}
}

// MessageCount returns the total number of messages sent so far.
func (n *Network) MessageCount() uint64 { return n.stats.Messages.Load() }

// ByteCount returns the total payload bytes sent so far.
func (n *Network) ByteCount() uint64 { return n.stats.Bytes.Load() }

// CallbackCount returns the number of callback (invalidation) messages sent.
func (n *Network) CallbackCount() uint64 { return n.stats.Callbacks.Load() }

// RequestCount returns the number of request messages sent (messages routed
// through Send — RPCs, async sends, broadcasts — as opposed to replies and
// callbacks).
func (n *Network) RequestCount() uint64 { return n.stats.Requests.Load() }

// route computes the arrival time of an envelope sent at sentAt from srcCore
// to dstCore with the given payload size.
func (n *Network) route(srcCore, dstCore int, sentAt sim.Cycles, payload int) sim.Cycles {
	return sentAt + n.machine.Cost.MsgLatency(n.machine.Topo.Distance(srcCore, dstCore), payload)
}

// Send delivers an envelope to dst's request inbox. When Send returns the
// envelope is already in the destination queue (atomic delivery). It returns
// the arrival time at the destination.
//
// The receiver owns the payload once Send returns (see pool.go); the caller
// must not reuse or release it.
func (n *Network) Send(src *Endpoint, dst EndpointID, kind uint16, payload []byte, sentAt sim.Cycles, reply *Queue) (sim.Cycles, error) {
	arrive, _, err := n.send(src, dst, kind, payload, sentAt, reply, false)
	if src.Transient {
		n.GateIdle(src.ID)
	}
	return arrive, err
}

// send is Send, also returning the await bound — the earliest a reply can
// reach src: the request's arrival, the destination's turnaround, and the
// empty-payload latency back. blocks says the sender waits for it at once.
func (n *Network) send(src *Endpoint, dst EndpointID, kind uint16, payload []byte, sentAt sim.Cycles, reply *Queue, blocks bool) (arrive, bound sim.Cycles, err error) {
	dep := n.lookup(dst)
	if dep == nil {
		return 0, 0, fmt.Errorf("msg: send to unknown endpoint %d", dst)
	}
	g := n.gate.Load()
	if g != nil && (!blocks || src.lane.Load() != g) {
		// The lane reaches sentAt before the message is queued, unless it is
		// joined and about to block (below): the receiver may park the request
		// and idle the lane the moment it can pop it — an ungated one, such as
		// a scheduling server taking over an exec proxy's lane, at once — and
		// a join landing after that would pin the lane for good.
		src.lane.Store(g)
		g.Sent(int(src.ID), sentAt, sentAt)
	}
	arrive = n.route(src.Core, dep.Core, sentAt, len(payload))
	fs := n.faults.Load()
	if fs != nil {
		arrive += fs.delay(src.ID, dst, kind, payload, sentAt)
	}
	if g != nil {
		bound = n.route(dep.Core, src.Core, arrive+dep.Turnaround, 0)
	}
	env := Envelope{
		Src:      src.ID,
		Dst:      dst,
		Kind:     kind,
		Payload:  payload,
		Seq:      src.sendSeq.Add(1),
		SentAt:   sentAt,
		ArriveAt: arrive,
		Reply:    reply,
	}
	// The duplication decision (and its payload copy) must be taken before
	// the original is pushed: the receiver owns the payload from the moment
	// it is queued and may decode it, release the buffer, and reuse it for
	// its reply while this goroutine is still running — reading the payload
	// after Push races with that reuse.
	var dupEnv Envelope
	haveDup := false
	if fs != nil {
		if extra, dup := fs.dupDelay(src.ID, dst, kind, payload, sentAt); dup {
			// Deliver the same request a second time, strictly after the
			// original. The receiver answers both; the surplus reply is
			// abandoned with its queue. The duplicate gets its own payload
			// copy because each delivered envelope owns its payload.
			dupEnv = env
			dupEnv.Payload = append(src.cache.GetBuf(len(payload)), payload...)
			dupEnv.Seq = src.sendSeq.Add(1)
			dupEnv.ArriveAt = arrive + extra
			dupEnv.dup = true
			haveDup = true
		}
	}
	// A message is counted before it is delivered, here and in SendCallback
	// and Reply: whatever its delivery wakes finds it counted.
	n.stats.Messages.Add(1)
	n.stats.Requests.Add(1)
	n.stats.Bytes.Add(uint64(len(payload)))
	offer := dep.Inbox.push(env)
	if haveDup {
		n.stats.Messages.Add(1)
		n.stats.Requests.Add(1)
		n.stats.Bytes.Add(uint64(len(dupEnv.Payload)))
		dep.Inbox.Push(dupEnv)
	}
	if g != nil && blocks {
		// A blocking sender's one raise, straight to the await bound. Until it
		// the lane's frontier, at most sentAt, keeps the request unsafe at a
		// gated receiver, so no idle can precede it; the receiver is offered
		// its head after it, or its sender would hold every request back.
		g.Sent(int(src.ID), sentAt, bound)
	}
	if offer {
		dep.Inbox.offerHead()
	}
	return arrive, bound, nil
}

// SendCallback delivers an envelope to dst's callback queue (used for
// directory-cache invalidations). Like Send, delivery is atomic, and the
// envelope owns its payload: the sender draws one buffer per destination
// from its cache and the receiver hands it back with ReleaseToSender.
func (n *Network) SendCallback(src *Endpoint, dst EndpointID, kind uint16, payload []byte, sentAt sim.Cycles) (sim.Cycles, error) {
	dep := n.lookup(dst)
	if dep == nil {
		return 0, fmt.Errorf("msg: callback to unknown endpoint %d", dst)
	}
	arrive := n.route(src.Core, dep.Core, sentAt, len(payload))
	env := Envelope{
		Src:      src.ID,
		Dst:      dst,
		Kind:     kind,
		Payload:  payload,
		Seq:      src.sendSeq.Add(1),
		SentAt:   sentAt,
		ArriveAt: arrive,
	}
	n.stats.Messages.Add(1)
	n.stats.Callbacks.Add(1)
	n.stats.Bytes.Add(uint64(len(payload)))
	if !dep.Callbacks.pushOpen(env) {
		src.cache.PutBuf(payload) // dst has left (Leave)
	}
	return arrive, nil
}

// ReleaseToSender returns a decoded callback's payload to the cache of the
// endpoint that sent it. Callbacks flow one way only, so a receiver that kept
// the buffers would starve the sender's cache of them; the sender's cache is
// locked, and this is its one cross-goroutine use.
func (n *Network) ReleaseToSender(env Envelope) {
	if src := n.lookup(env.Src); src != nil {
		src.cache.PutBuf(env.Payload)
	}
}

// Reply pushes a response envelope onto the reply queue carried by a request.
// The caller supplies its own endpoint (for core/latency accounting). The
// awaiting requester owns the payload once Reply returns.
func (n *Network) Reply(from *Endpoint, req Envelope, kind uint16, payload []byte, sentAt sim.Cycles) sim.Cycles {
	if req.Reply == nil {
		return sentAt
	}
	// The requester's core is needed for latency; look it up.
	dstCore := from.Core
	resume := true
	if sep := n.lookup(req.Src); sep != nil {
		dstCore = sep.Core
		resume = !sep.Transient
	}
	arrive := n.route(from.Core, dstCore, sentAt, len(payload))
	if fs := n.faults.Load(); fs != nil {
		arrive += fs.delay(from.ID, req.Src, kind, payload, sentAt)
	}
	env := Envelope{
		Src:      from.ID,
		Dst:      req.Src,
		Kind:     kind,
		Payload:  payload,
		Seq:      from.sendSeq.Add(1),
		SentAt:   sentAt,
		ArriveAt: arrive,
	}
	n.stats.Messages.Add(1)
	n.stats.Bytes.Add(uint64(len(payload)))
	if g := n.gate.Load(); g != nil {
		req.Reply.pushReply(env, g, resume)
	} else {
		req.Reply.Push(env)
	}
	return arrive
}
