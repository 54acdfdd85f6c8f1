package msg

import (
	"fmt"

	"repro/internal/sim"
)

// RPC performs a synchronous request/response exchange: it sends a request
// from src to dst, blocks until the reply arrives, and returns the reply
// envelope. The returned arrival time is the virtual time at which the reply
// is available at the caller; the caller is responsible for advancing its
// clock to that time and charging receive-side costs.
func (n *Network) RPC(src *Endpoint, dst EndpointID, kind uint16, payload []byte, sentAt sim.Cycles) (Envelope, error) {
	// The send itself takes the lane to the await bound: one raise per call.
	fut, err := n.sendAsync(src, dst, kind, payload, sentAt, true)
	if err != nil {
		return Envelope{}, err
	}
	env, err := fut.wait(true)
	if src.Transient {
		n.GateIdle(src.ID)
	}
	if err != nil {
		return Envelope{}, fmt.Errorf("msg: rpc to endpoint %d: reply queue closed", dst)
	}
	return env, nil
}

// BroadcastResult is one reply from a broadcast RPC.
type BroadcastResult struct {
	Dst EndpointID
	Env Envelope
	Err error
}

// Broadcast sends the same request to every destination and waits for all
// replies. When parallel is true, the requests are sent back-to-back so the
// RPC latencies overlap (the paper's Directory Broadcast optimization); when
// false the exchanges are performed strictly one after another, each new
// request being sent only after the previous reply arrived at sentAt' =
// previous reply arrival. The per-destination results are returned in the
// order of dsts.
//
// Each delivered envelope owns its payload, so every destination after the
// first receives a copy drawn from the sender's buffer cache.
func (n *Network) Broadcast(src *Endpoint, dsts []EndpointID, kind uint16, payload []byte, sentAt sim.Cycles, parallel bool) []BroadcastResult {
	results := make([]BroadcastResult, len(dsts))
	// Cut every copy before the first send: the moment destination 0 holds
	// the original it may decode, release, and reuse the buffer for its own
	// reply, so copying lazily from `payload` at iteration i would read
	// whatever the receiver wrote over it.
	payloads := make([][]byte, len(dsts))
	for i := range dsts {
		if i == 0 {
			payloads[i] = payload
			continue
		}
		payloads[i] = append(src.cache.GetBuf(len(payload)), payload...)
	}
	if parallel {
		futs := make([]*Future, len(dsts))
		for i, d := range dsts {
			fut, err := n.SendAsync(src, d, kind, payloads[i], sentAt)
			if err != nil {
				results[i] = BroadcastResult{Dst: d, Err: err}
				continue
			}
			futs[i] = fut
		}
		for i, fut := range futs {
			if fut == nil {
				continue
			}
			env, err := fut.Await()
			if err != nil {
				results[i] = BroadcastResult{Dst: dsts[i], Err: fmt.Errorf("msg: broadcast reply queue closed")}
				continue
			}
			results[i] = BroadcastResult{Dst: dsts[i], Env: env}
		}
		return results
	}
	now := sentAt
	for i, d := range dsts {
		env, err := n.RPC(src, d, kind, payloads[i], now)
		if err != nil {
			results[i] = BroadcastResult{Dst: d, Err: err}
			continue
		}
		results[i] = BroadcastResult{Dst: d, Env: env}
		if env.ArriveAt > now {
			now = env.ArriveAt
		}
	}
	return results
}
