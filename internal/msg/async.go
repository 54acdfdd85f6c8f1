package msg

import (
	"fmt"

	"repro/internal/sim"
)

// Future is the pending reply of one asynchronous request. A caller may keep
// any number of futures outstanding (to the same server or to several) and
// harvest them in any order with Await.
//
// Virtual-time contract (DESIGN.md §7): the request is stamped with the
// sentAt the caller gives; the caller is responsible for advancing its clock
// to the maximum reply arrival among the futures it awaits and for charging
// its own send/receive CPU costs.
type Future struct {
	q   *Queue
	dst EndpointID
	src *Endpoint
	// SentAt is the virtual time the request was stamped with.
	SentAt sim.Cycles
	// bound is the earliest the cost model lets the reply arrive (see send):
	// the lane's frontier while the caller blocks in Await.
	bound sim.Cycles
}

// SendAsync sends a request and returns a Future for its reply without
// waiting. The request is in the destination's inbox when SendAsync returns
// (atomic delivery, like Send). The future and its reply queue come from the
// sending endpoint's free-list cache; Await recycles them.
func (n *Network) SendAsync(src *Endpoint, dst EndpointID, kind uint16, payload []byte, sentAt sim.Cycles) (*Future, error) {
	return n.sendAsync(src, dst, kind, payload, sentAt, false)
}

func (n *Network) sendAsync(src *Endpoint, dst EndpointID, kind uint16, payload []byte, sentAt sim.Cycles, blocks bool) (*Future, error) {
	f := src.cache.getFuture()
	_, bound, err := n.send(src, dst, kind, payload, sentAt, f.q, blocks)
	if err != nil {
		src.cache.putFuture(f)
		return nil, err
	}
	f.dst = dst
	f.src = src
	f.SentAt = sentAt
	f.bound = bound
	return f, nil
}

// Await blocks until the reply arrives and returns its envelope. It fails
// only if the reply queue was closed without a reply (the responder died).
// A future must be awaited at most once; after a successful Await it is
// recycled and must not be touched again.
func (f *Future) Await() (Envelope, error) {
	if src := f.src; src != nil {
		if g := src.net.gate.Load(); g != nil {
			// Blocked here the lane cannot send, and it resumes at the reply's
			// arrival, which the bound precedes: a sound frontier.
			g.Await(int(src.ID), f.bound)
		}
	}
	return f.wait(true)
}

// wait harvests the reply; awaited says the lane has published the future's
// bound, so the replier may raise it further (Queue.pushReply).
func (f *Future) wait(awaited bool) (Envelope, error) {
	env, ok := f.q.popWait(awaited)
	if !ok {
		return Envelope{}, fmt.Errorf("msg: async rpc to endpoint %d: reply queue closed", f.dst)
	}
	f.recycle()
	return env, nil
}

// recycle returns a harvested future to its endpoint's cache unless a fault
// plan is installed: a duplicated request makes the responder reply twice,
// and the surplus reply may be pushed arbitrarily late — the queue must not
// be reused then.
func (f *Future) recycle() {
	if src := f.src; src != nil && src.net.faults.Load() == nil && f.q.Len() == 0 {
		src.cache.putFuture(f)
	}
}

// AwaitHandoff blocks like Await but never publishes a frontier for the
// lane: the receiver of the request takes responsibility for it (idling the
// lane once the spawned work's own lanes are tracked, and resuming it with
// the reply). It exists for requests served by *ungated* endpoints — remote
// exec on a scheduling server — where the ordinary Await bump could race
// with the receiver's idle and re-pin the lane at the request's arrival
// forever. The lane's floor stays at the request's send time until the
// receiver idles it.
func (f *Future) AwaitHandoff() (Envelope, error) { return f.wait(false) }
