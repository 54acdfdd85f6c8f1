package client

import (
	"sort"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

// Asynchronous RPC helpers (DESIGN.md §7).
//
// The paper's client performs every operation as a synchronous ping-pong;
// this file generalizes its two one-off message-saving tricks (directory
// broadcast, the coalesced-create opcode) into reusable machinery:
//
//   - post / receive keep several requests in flight at once, to the same
//     server or to several (wire.go). Each send charges MsgSend and stamps
//     the request at the clock it was issued at; receiving advances the
//     clock to the latest reply arrival and charges one MsgRecv per reply.
//   - rpcBatch packs same-server requests into OpBatch envelopes so they
//     share one round trip and one server-side message-arrival overhead.
//   - scatter combines both: per-server request lists travel as batches
//     whose round trips to distinct servers overlap.

// batchLen returns how many of the leading requests travel in one batch
// envelope, behind led fixed-shape requests already in it: as many as the
// protocol's caps allow. The estimate leaves headroom for the fixed-shape
// fields so an envelope never exceeds MaxBatchBytes once marshaled.
func batchLen(reqs []*proto.Request, led int) int {
	const perReqOverhead = 192
	budget := proto.MaxBatchBytes - 64
	n, bytes := led, led*perReqOverhead
	for _, r := range reqs {
		est := perReqOverhead + len(r.Name) + len(r.Data) + len(r.Program) + len(r.Dirname)
		if n > 0 && (n >= proto.MaxBatchOps || bytes+est > budget) {
			break
		}
		n++
		bytes += est
	}
	return n - led
}

// batchEnvelope returns the OpBatch envelope that carries the sub-requests;
// its AppendTo encodes them in place. It is returned by value so that an
// envelope sent at once stays on the caller's stack, the sub-requests with
// it.
func (c *Client) batchEnvelope(subs []*proto.Request, stopOnErr bool) proto.Request {
	return proto.Request{Op: proto.OpBatch, Subs: subs, StopOnErr: stopOnErr}
}

// rpcBatch sends requests destined for one server and appends their
// responses to out, in request order. They travel in OpBatch envelopes, split
// at the protocol size caps. stopOnErr makes the requests a dependent chain:
// after the first failure the remaining ones are skipped with ECANCELED
// responses (server-side within a batch, client-side across batch splits). A
// request whose Target is proto.PrevInode works on the inode its
// predecessor's response carries: inside an envelope the server resolves it
// (and answers EXDEV when another server stores the inode); sent on its own
// it is resolved here and goes to the inode's server, wherever that is. A
// protocol failure of a sub-operation is reported in its Response, not as an
// error.
func (c *Client) rpcBatch(srv int, stopOnErr bool, reqs []*proto.Request, out []*proto.Response) ([]*proto.Response, error) {
	failed, mine := false, len(out)
	for len(reqs) > 0 {
		n := batchLen(reqs, 0)
		chunk := reqs[:n]
		reqs = reqs[n:]
		first := len(out)
		switch {
		case failed && stopOnErr:
			for range chunk {
				out = append(out, c.errResp(fsapi.ECANCELED))
			}
		case n == 1:
			req, dst := chunk[0], srv
			if req.Target == proto.PrevInode {
				ino, ok := proto.ChainTarget(out[mine:first])
				if !ok {
					out = append(out, c.errResp(fsapi.ECANCELED))
					break
				}
				req.Target, dst = ino, int(ino.Server)
			}
			resp, err := c.rpc(dst, req)
			if err != nil {
				return nil, err
			}
			out = append(out, resp)
		default:
			env := c.batchEnvelope(chunk, stopOnErr)
			var err error
			if out, err = c.exchange(srv, &env, out); err != nil {
				return nil, err
			}
		}
		for _, r := range out[first:] {
			if r.Err != fsapi.OK {
				failed = true
			}
		}
	}
	return out, nil
}

// scatter delivers independent per-server request lists with overlapping
// round trips: each server's list is packed into batch envelopes, every
// envelope is issued back-to-back, and all replies are awaited together.
// Responses are returned per server in request order.
func (c *Client) scatter(perSrv map[int][]*proto.Request) (map[int][]*proto.Response, error) {
	srvs := make([]int, 0, len(perSrv))
	for srv := range perSrv {
		srvs = append(srvs, srv)
	}
	sort.Ints(srvs)

	var fls []flight
	for _, srv := range srvs {
		for reqs := perSrv[srv]; len(reqs) > 0; {
			n := batchLen(reqs, 0)
			env := reqs[0]
			if n > 1 {
				batch := c.batchEnvelope(reqs[:n], false)
				env = &batch
			}
			reqs = reqs[n:]
			fls = append(fls, flight{})
			if err := c.post(&fls[len(fls)-1], srv, env); err != nil {
				return nil, err
			}
		}
	}
	resps, err := c.receive(fls, nil)
	c.yield()
	if err != nil {
		return nil, err
	}
	// One response per request, in the order the lists were sent.
	out := make(map[int][]*proto.Response, len(srvs))
	for _, srv := range srvs {
		n := len(perSrv[srv])
		out[srv], resps = resps[:n:n], resps[n:]
	}
	return out, nil
}
