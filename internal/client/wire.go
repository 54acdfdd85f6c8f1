package client

import (
	"runtime"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The wire (DESIGN.md §7). Every request this client makes leaves by send and
// every reply comes back by receive; exchange, post, broadcast and ExecOn are
// the ways of waiting in between, and Control is the control plane's leg,
// which the caller decodes. send also settles what a server is owed: a
// clean close waiting for this client's next message (closeLeads).

// A flight is one request message sent, and what its reply answers.
type flight struct {
	fut *msg.Future // the reply, while it is awaited later (post)

	// The reply, once it has come.
	payload []byte
	arrive  sim.Cycles

	n   int       // sub-responses the reply carries; 0 for a bare request's
	led *openFile // the clean close that leads the envelope, answered first

	// A synchronous call's own RPC span, when traced: its op and start.
	op   proto.Op
	span uint64
	at   sim.Cycles
}

// arrived records the reply.
func (fl *flight) arrived(env msg.Envelope) {
	fl.fut, fl.payload, fl.arrive = nil, env.Payload, env.ArriveAt
}

// How send hands a request over.
type sendMode uint8

const (
	// sendCall: the reply is awaited at once, under an RPC span of the call's
	// own; a pending clean close may lead the request.
	sendCall sendMode = iota
	// sendPost: the reply is awaited later, after other sends.
	sendPost
	// sendNext: awaited at once, under the operation's span — one request of a
	// sequential broadcast.
	sendNext
)

// send is the one way a request leaves the client, recorded in fl, a zero
// flight of the caller's. What the destination is owed goes first: a pending clean close leads a call in one
// envelope when closeLeads allows, and otherwise goes on its own, before. The
// request is then stamped with this client's id and the trace context,
// marshaled into a pooled buffer and transmitted.
func (c *Client) send(fl *flight, dst msg.EndpointID, req *proto.Request, sends int, mode sendMode) error {
	wire := req
	if of := c.pend; of != nil {
		if mode == sendCall && c.closeLeads(of, dst, req) {
			// Declared here, not zeroed on every send; they stay on this frame.
			var led [proto.MaxBatchOps]*proto.Request
			cl := proto.Request{Op: proto.OpCloseInode, Target: of.ino}
			subs, stop := []*proto.Request{req}, false
			if req.Op == proto.OpBatch {
				subs, stop = req.Subs, req.StopOnErr
			}
			led[0] = &cl
			for i, r := range subs { // not copy: it would move them to the heap
				led[1+i] = r
			}
			env := c.batchEnvelope(led[:1+len(subs)], stop)
			wire, fl.led = &env, of
		} else {
			c.flushClose()
		}
	}
	if wire.Op == proto.OpBatch {
		fl.n = len(wire.Subs)
		c.stats.batched.Add(uint64(fl.n))
	}
	if c.cur != nil {
		wire.Trace, wire.Span = c.cur.Trace, c.cur.ID
		if mode == sendCall {
			fl.span = c.tem.Next()
			wire.Span = fl.span
			c.charge(c.cfg.Machine.Cost.TraceSpan)
		}
	}
	fl.op = wire.Op
	return c.transmit(fl, dst, proto.KindRequest, wire.AppendTo(c.ep.GetBuf(wire.SizeHint())), sends, mode)
}

// transmit is the last step of every send: payload, a message of kind owned
// by the receiver once sent (msg/pool.go), is charged `sends` MsgSends and
// handed to the network at the clock, and counted.
func (c *Client) transmit(fl *flight, dst msg.EndpointID, kind uint16, payload []byte, sends int, mode sendMode) error {
	fl.at = c.clock.Now()
	if sends > 0 {
		c.charge(c.cfg.Machine.Cost.MsgSend * sim.Cycles(sends))
	}
	var err error
	if mode == sendPost {
		fl.fut, err = c.cfg.Network.SendAsync(c.ep, dst, kind, payload, c.clock.Now())
	} else {
		reply, rerr := c.cfg.Network.RPC(c.ep, dst, kind, payload, c.clock.Now())
		fl.payload, fl.arrive, err = reply.Payload, reply.ArriveAt, rerr
	}
	if err != nil {
		return fsapi.EIO
	}
	c.stats.rpcs.Add(1)
	return nil
}

// receive is the one way back. It awaits the replies of fls still in flight,
// advances the clock to the latest arrival and charges one MsgRecv per reply;
// then it decodes each reply into an arena response, releases its payload,
// and appends what the requests it answers got to out, in send order. Every
// payload is released, also once one reply has failed; the first failure is
// the error.
func (c *Client) receive(fls []flight, out []*proto.Response) ([]*proto.Response, error) {
	var latest sim.Cycles
	for i := range fls {
		fl := &fls[i]
		if fl.fut != nil {
			env, err := fl.fut.Await()
			if err != nil {
				for _, got := range fls[:i] {
					c.ep.PutBuf(got.payload)
				}
				return nil, fsapi.EIO
			}
			fl.arrived(env)
		}
		latest = max(latest, fl.arrive)
	}
	c.clock.AdvanceTo(latest)
	c.charge(c.cfg.Machine.Cost.MsgRecv * sim.Cycles(len(fls)))
	var err error
	for i := range fls {
		fl := &fls[i]
		resp := c.newResp()
		derr := proto.UnmarshalResponseInto(resp, fl.payload)
		c.ep.PutBuf(fl.payload) // decoded fields never alias the wire bytes
		switch {
		case err != nil:
		case derr != nil:
			err = fsapi.EIO
		default:
			if fl.span != 0 {
				c.tr.Record(trace.Span{
					Trace: c.cur.Trace, ID: fl.span, Parent: c.cur.ID,
					Kind: trace.KindRPC, Name: fl.op.String(), Where: c.where(),
					Start: fl.at, End: c.clock.Now(), Err: int32(resp.Err),
				})
			}
			if fl.n == 0 {
				out = append(out, resp)
			} else {
				out, err = c.unpack(fl, resp, out)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// unpack appends the sub-responses an envelope's reply carries to out, once
// the clean close that led it has its answer. An envelope refused whole
// leaves that close pending: nothing of it ran.
func (c *Client) unpack(fl *flight, reply *proto.Response, out []*proto.Response) ([]*proto.Response, error) {
	if reply.Err != fsapi.OK {
		return out, reply.Err
	}
	var slots [proto.MaxBatchOps]*proto.Response
	subs := slots[:fl.n]
	for i := range subs {
		subs[i] = c.newResp()
	}
	if proto.UnmarshalBatchResponsesInto(subs, reply.Data) != nil {
		return out, fsapi.EIO
	}
	if of := fl.led; of != nil {
		c.closed(of, subs[0])
		subs = subs[1:]
	}
	return append(out, subs...), nil
}

// endpoint returns server srv's endpoint; an index the routing does not know
// answers EIO.
func (c *Client) endpoint(srv int) (msg.EndpointID, error) {
	rt := c.routing
	if srv < 0 || srv >= len(rt.Servers) {
		return 0, fsapi.EIO
	}
	return rt.Servers[srv], nil
}

// exchange sends req to server srv, awaits the reply and appends what req got
// to out: its response, or its sub-requests' when req is an OpBatch envelope.
// After each exchange the goroutine yields (see yield).
func (c *Client) exchange(srv int, req *proto.Request, out []*proto.Response) ([]*proto.Response, error) {
	dst, err := c.endpoint(srv)
	if err != nil {
		return nil, err
	}
	var fls [1]flight
	if err := c.send(&fls[0], dst, req, 1, sendCall); err != nil {
		return nil, err
	}
	out, err = c.receive(fls[:], out)
	c.yield()
	return out, err
}

// rpc performs one synchronous RPC to the given server index and returns the
// decoded response.
func (c *Client) rpc(srv int, req *proto.Request) (*proto.Response, error) {
	var buf [1]*proto.Response
	out, err := c.exchange(srv, req, buf[:0])
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// rpcOK performs an RPC and converts a non-OK errno into a Go error.
func (c *Client) rpcOK(srv int, req *proto.Request) (*proto.Response, error) {
	resp, err := c.rpc(srv, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != fsapi.OK {
		return resp, resp.Err
	}
	return resp, nil
}

// post sends req to server srv without waiting: receive takes the reply.
func (c *Client) post(fl *flight, srv int, req *proto.Request) error {
	dst, err := c.endpoint(srv)
	if err != nil {
		return err
	}
	return c.send(fl, dst, req, 1, sendPost)
}

// yield hands the processor to the Go scheduler after an exchange — in the
// serialized engine only. There the accuracy of the virtual-time queueing
// model depends on the simulated processes staying roughly in (virtual)
// lockstep; without the yield, the runtime tends to run one client/server
// ping-pong chain far ahead of the others, which shows up as artificial
// queueing delay (see DESIGN.md §4). Under the parallel engine servers serve
// in virtual-arrival order whatever the host order, and ordering is the
// gate's job.
func (c *Client) yield() {
	if c.cfg.Network.Gate() == nil {
		runtime.Gosched()
	}
}

// broadcast sends the same request to the given servers and returns their
// responses in order, the client's scratch until its next broadcast (§3.6.2).
// It charges one send per server first. With the directory broadcast
// optimization the requests then go out together, all stamped with that one
// time, and their latencies overlap; without it they go one at a time, each
// stamped at its predecessor's reply's arrival. Either way the clock ends at
// the last arrival plus one receive per server.
func (c *Client) broadcast(servers []int, req *proto.Request) ([]*proto.Response, error) {
	for _, s := range servers {
		if _, err := c.endpoint(s); err != nil {
			return nil, err
		}
	}
	mode := sendPost
	if !c.cfg.Options.DirBroadcast {
		mode = sendNext
	}
	fls := c.bcastFls[:0]
	sends := len(servers)
	var err error
	for _, s := range servers {
		if n := len(fls); mode == sendNext && n > 0 {
			c.clock.AdvanceTo(fls[n-1].arrive)
		}
		fls = append(fls, flight{})
		if err = c.send(&fls[len(fls)-1], c.routing.Servers[s], req, sends, mode); err != nil {
			fls = fls[:len(fls)-1]
			break
		}
		sends = 0
	}
	c.bcastFls = fls
	out, rerr := c.receive(fls, c.bcastOut[:0])
	c.bcastOut = out[:0]
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExecOn sends an exec request to a scheduling server's endpoint, waits until
// the process it starts has exited, and returns that process's exit status,
// with the same virtual-time accounting as file-server RPCs.
//
// The await is a gate handoff (AwaitHandoff): the caller is the exec proxy,
// whose reply arrives after the scheduling server has handed this lane's
// work to a child client lane. Bumping the proxy's lane frontier past the
// send time here would let gated servers run ahead of the child before it
// joins; the proxy lane instead stays floored at the send until the
// scheduler idles it (DESIGN.md §13).
func (c *Client) ExecOn(dst msg.EndpointID, req *proto.Request) (status int32, err error) {
	defer c.releaseResps(c.respMark())
	var fls [1]flight
	if err = c.send(&fls[0], dst, req, 1, sendPost); err != nil {
		return 0, err
	}
	env, err := fls[0].fut.AwaitHandoff()
	if err != nil {
		return 0, fsapi.EIO
	}
	fls[0].arrived(env)
	var buf [1]*proto.Response
	resps, err := c.receive(fls[:], buf[:0])
	if err != nil {
		return 0, err
	}
	if resps[0].Err != fsapi.OK {
		return 0, resps[0].Err
	}
	return resps[0].ExitStatus, nil
}

// Control sends one leg of a control-plane call (core's System methods):
// payload, a message of kind encoded by the caller, goes to dst after what
// the servers are owed, at this client's clock like any call, and the reply's
// payload is handed to decode and released. The clock ends at the reply's
// arrival plus its receive. A bare client ends the call with ControlDone.
func (c *Client) Control(dst msg.EndpointID, kind uint16, payload []byte, decode func([]byte) error) error {
	c.flushClose()
	var fl flight
	if err := c.transmit(&fl, dst, kind, payload, 1, sendCall); err != nil {
		return err
	}
	c.clock.AdvanceTo(fl.arrive)
	c.charge(c.cfg.Machine.Cost.MsgRecv)
	defer c.ep.PutBuf(fl.payload)
	return decode(fl.payload)
}

// ControlDone ends a control call made from this client. A control call is
// one operation: a bare client's lane, which its first leg joined, is parked
// now (Config.AutoPark).
func (c *Client) ControlDone() { c.opDone(c.respMark()) }

// A clean close rides (DESIGN.md §7). Close keeps a description whose close
// tells the server nothing another process can see as c.pend and sends
// nothing; send settles it with this client's next message.

// closeLeads is the rule for what rides: the pending close of of leads req,
// a call to dst, in one envelope when dst stores its inode, every request
// req carries may share an envelope, and there is room under the caps.
func (c *Client) closeLeads(of *openFile, dst msg.EndpointID, req *proto.Request) bool {
	reqs := []*proto.Request{req}
	if req.Op == proto.OpBatch {
		reqs = req.Subs
	}
	srv, err := c.endpoint(int(of.ino.Server))
	leads := err == nil && srv == dst && batchLen(reqs, 1) == len(reqs)
	for _, r := range reqs {
		leads = leads && r.Op.Info().Batchable
	}
	return leads
}

// flushClose sends the pending close, if there is one, on its own. It calls
// send and receive itself: through rpc, which send can reach again from
// here, rpc's response buffer would be a heap object on every call.
func (c *Client) flushClose() {
	of := c.pend
	if of == nil {
		return
	}
	c.pend = nil
	var resp *proto.Response
	var fls [1]flight
	var buf [1]*proto.Response
	dst, err := c.endpoint(int(of.ino.Server))
	if err == nil {
		err = c.send(&fls[0], dst, &proto.Request{Op: proto.OpCloseInode, Target: of.ino}, 1, sendCall)
	}
	if err == nil {
		if out, err := c.receive(fls[:], buf[:0]); err == nil {
			resp = out[0]
		}
		c.yield()
	}
	c.closed(of, resp)
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
