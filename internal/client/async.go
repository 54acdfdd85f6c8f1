package client

import (
	"sort"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Asynchronous RPC helpers (DESIGN.md §7).
//
// The paper's client performs every operation as a synchronous ping-pong;
// this file generalizes its two one-off message-saving tricks (directory
// broadcast, the coalesced-create opcode) into reusable machinery:
//
//   - sendAsync / awaitAll keep several requests in flight at once, to the
//     same server or to several. Virtual time follows the broadcast rules:
//     each send charges MsgSend and stamps the request at the clock it was
//     issued at; awaiting advances the clock to the latest reply arrival and
//     charges one MsgRecv per reply.
//   - rpcBatch packs same-server requests into OpBatch envelopes so they
//     share one round trip and one server-side message-arrival overhead.
//   - scatter combines both: per-server request lists travel as batches
//     whose round trips to distinct servers overlap.

// sendAsync issues one request without waiting for the reply.
func (c *Client) sendAsync(srv int, req *proto.Request) (*msg.Future, error) {
	c.flushClose()
	rt := c.routing
	if srv < 0 || srv >= len(rt.Servers) {
		return nil, fsapi.EIO
	}
	req.ClientID = c.cfg.ID
	c.traceRequest(req)
	payload := c.marshalReq(req)
	c.charge(c.cfg.Machine.Cost.MsgSend)
	fut, err := c.cfg.Network.SendAsync(c.ep, rt.Servers[srv], proto.KindRequest, payload, c.clock.Now())
	if err != nil {
		return nil, fsapi.EIO
	}
	c.stats.rpcs.Add(1)
	return fut, nil
}

// awaitAll harvests the given futures: the clock advances to the latest
// reply arrival, one receive cost is charged per reply, and the decoded
// responses are returned in future order. Every payload harvested is
// released, also when a later future or a decode fails.
func (c *Client) awaitAll(futs []*msg.Future) ([]*proto.Response, error) {
	envs := make([]msg.Envelope, len(futs))
	var latest sim.Cycles
	for i, f := range futs {
		env, err := f.Await()
		if err != nil {
			for _, got := range envs[:i] {
				c.ep.PutBuf(got.Payload)
			}
			return nil, fsapi.EIO
		}
		envs[i] = env
		if env.ArriveAt > latest {
			latest = env.ArriveAt
		}
	}
	c.clock.AdvanceTo(latest)
	c.charge(c.cfg.Machine.Cost.MsgRecv * sim.Cycles(len(futs)))
	out := make([]*proto.Response, len(envs))
	failed := false
	for i := range envs {
		out[i] = c.newResp()
		if err := proto.UnmarshalResponseInto(out[i], envs[i].Payload); err != nil {
			failed = true
		}
		c.ep.PutBuf(envs[i].Payload)
	}
	if failed {
		return nil, fsapi.EIO
	}
	c.yield()
	return out, nil
}

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

// batchEnvelope stamps the sub-requests and returns the OpBatch envelope that
// carries them; its AppendTo encodes them in place. It is returned by value
// so that an envelope sent at once stays on the caller's stack, the
// sub-requests with it.
func (c *Client) batchEnvelope(subs []*proto.Request, stopOnErr bool) proto.Request {
	for _, r := range subs {
		r.ClientID = c.cfg.ID
	}
	return proto.Request{Op: proto.OpBatch, Subs: subs, StopOnErr: stopOnErr}
}

// A clean close rides (DESIGN.md §7). Close keeps a description whose close
// tells the server nothing another process can see as c.pend and sends
// nothing; the CLOSE_INODE leads the next message to that inode's server.

// closeLeads settles the pending close before reqs go to srv as one message.
// It reports true when the close can lead them in one envelope — same server,
// operations that may share one, room under the caps — and otherwise sends it
// on its own, as Close would have, so that nothing overtakes it.
func (c *Client) closeLeads(srv int, reqs []*proto.Request) bool {
	of := c.pend
	if of == nil {
		return false
	}
	leads := int(of.ino.Server) == srv && batchLen(reqs, 1) == len(reqs)
	for _, r := range reqs {
		leads = leads && proto.Batchable(r.Op)
	}
	if !leads {
		c.flushClose()
	}
	return leads
}

// flushClose sends the pending close, if there is one, on its own.
func (c *Client) flushClose() {
	if of := c.pend; of != nil {
		resp, _ := c.exchange(int(of.ino.Server), &proto.Request{Op: proto.OpCloseInode, Target: of.ino})
		c.closed(of, resp)
	}
}

// closed takes CLOSE_INODE's answer — none when it could not be sent — for a
// description whose close was clean. A version that still matches proves
// nothing changed while it was open: an intact window lets a reopen at this
// version skip invalidation, a lost one (someone else mutated the file
// meanwhile) evicts the entry. A close that failed is dropped, as every
// close's error is at exit: the descriptor is gone either way.
func (c *Client) closed(of *openFile, resp *proto.Response) {
	if resp != nil && resp.Err == fsapi.OK {
		of.expectVersion(resp.Version, false)
		c.settleVersion(of)
	}
	c.pend = nil
	c.freeOpenFile(of)
}

// envelope sends subs to srv as one OpBatch message, behind the pending close
// when there is one (the caller asked closeLeads), and appends their responses
// to out. The close's answer is taken before the caller sees any of the rest:
// an OPEN_INODE of the inode just closed finds its version window settled. An
// envelope refused whole leaves the close pending: nothing of it ran. Requests
// and response slots stay on this frame.
func (c *Client) envelope(srv int, stopOnErr bool, subs []*proto.Request, out []*proto.Response) ([]*proto.Response, error) {
	var led [proto.MaxBatchOps]*proto.Request
	var slots [proto.MaxBatchOps]*proto.Response
	of := c.pend
	if of != nil {
		led[0] = &proto.Request{Op: proto.OpCloseInode, Target: of.ino}
		for i, r := range subs {
			led[i+1] = r
		}
		subs = led[:len(subs)+1]
	}
	env := c.batchEnvelope(subs, stopOnErr)
	reply, err := c.exchange(srv, &env)
	if err != nil {
		return nil, err
	}
	resps, err := c.unpackBatch(slots[:0], reply, len(subs))
	if err != nil {
		return nil, err
	}
	c.stats.batched.Add(uint64(len(subs)))
	if of != nil {
		c.closed(of, resps[0])
		resps = resps[1:]
	}
	return append(out, resps...), nil
}

// unpackBatch appends the n sub-responses a batch reply carries to out.
func (c *Client) unpackBatch(out []*proto.Response, reply *proto.Response, n int) ([]*proto.Response, error) {
	if reply.Err != fsapi.OK {
		return nil, reply.Err
	}
	first := len(out)
	for i := 0; i < n; i++ {
		out = append(out, c.newResp())
	}
	if proto.UnmarshalBatchResponsesInto(out[first:], reply.Data) != nil {
		return nil, fsapi.EIO
	}
	return out, nil
}

// rpcBatch sends requests destined for one server and appends their
// responses to out, in request order. With pipelining enabled they travel in
// OpBatch envelopes (split at the protocol size caps); otherwise they are
// issued strictly one after another. stopOnErr makes the requests a
// dependent chain: after the first failure the remaining ones are skipped
// with ECANCELED responses (server-side within a batch, client-side across
// batch splits). A request whose Target is proto.PrevInode works on the inode
// its predecessor's response carries: inside an envelope the server resolves
// it (and answers EXDEV when another server stores the inode); sent on its
// own it is resolved here and goes to the inode's server, wherever that is.
// A protocol failure of a sub-operation is reported in its Response, not as
// an error.
func (c *Client) rpcBatch(srv int, stopOnErr bool, reqs []*proto.Request, out []*proto.Response) ([]*proto.Response, error) {
	failed, mine := false, len(out)
	for len(reqs) > 0 {
		n := 1
		if c.cfg.Options.Pipelining {
			n = batchLen(reqs, 0)
		}
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
			c.closeLeads(srv, chunk)
			var err error
			if out, err = c.envelope(srv, stopOnErr, chunk, out); err != nil {
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
// With pipelining disabled the lists run server by server, request by
// request. Responses are returned per server in request order.
func (c *Client) scatter(perSrv map[int][]*proto.Request) (map[int][]*proto.Response, error) {
	srvs := make([]int, 0, len(perSrv))
	for srv := range perSrv {
		srvs = append(srvs, srv)
	}
	sort.Ints(srvs)

	out := make(map[int][]*proto.Response, len(perSrv))
	if !c.cfg.Options.Pipelining {
		for _, srv := range srvs {
			resps, err := c.rpcBatch(srv, false, perSrv[srv], nil)
			if err != nil {
				return nil, err
			}
			out[srv] = resps
		}
		return out, nil
	}

	type sent struct {
		srv int
		n   int // sub-requests carried; 1 means a bare request
	}
	var futs []*msg.Future
	var refs []sent
	for _, srv := range srvs {
		for reqs := perSrv[srv]; len(reqs) > 0; {
			n := batchLen(reqs, 0)
			var batch proto.Request
			env := reqs[0]
			if n > 1 {
				batch = c.batchEnvelope(reqs[:n], false)
				c.stats.batched.Add(uint64(n))
				env = &batch
			}
			reqs = reqs[n:]
			fut, err := c.sendAsync(srv, env)
			if err != nil {
				return nil, err
			}
			futs = append(futs, fut)
			refs = append(refs, sent{srv: srv, n: n})
		}
	}
	resps, err := c.awaitAll(futs)
	if err != nil {
		return nil, err
	}
	for i, ref := range refs {
		if ref.n == 1 {
			out[ref.srv] = append(out[ref.srv], resps[i])
			continue
		}
		if out[ref.srv], err = c.unpackBatch(out[ref.srv], resps[i], ref.n); err != nil {
			return nil, err
		}
	}
	return out, nil
}
