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
