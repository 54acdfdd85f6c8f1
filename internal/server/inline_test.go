package server

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/wire"
)

// waitIdle waits until q's loop sleeps on it, empty: the state in which the
// next request is offered to the serve hook.
func waitIdle(t *testing.T, q *msg.Queue) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !q.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("the loop never went idle")
		}
		runtime.Gosched()
	}
}

// TestInlineServeMatchesLoop: the same requests, served inline by an idle
// server and by the loop of a server whose serve hook was removed, get
// byte-identical replies, sent and arriving at the same virtual times, leave
// the servers' clocks equal after each one, and the same counters and
// invalidations at the end. The sequence covers a lookup another client's
// unlink calls back, a batch, a pipe read parked until a write wakes it, an
// unknown op and a payload that does not decode.
func TestInlineServeMatchesLoop(t *testing.T) {
	type step struct {
		payload []byte
		park    bool // sent without waiting; the next step's reply wakes it
	}
	var steps []step
	add := func(req *proto.Request) { steps = append(steps, step{payload: req.Marshal()}) }
	add(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "a", Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
	add(&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "a"}) // sent by the peer
	add(&proto.Request{Op: proto.OpStat, Target: proto.InodeID{Server: 0, Local: 2}})
	add(&proto.Request{Op: proto.OpBatch, Subs: []*proto.Request{
		{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "b", Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular},
		{Op: proto.OpStat, Target: proto.PrevInode},
	}})
	add(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "a"})
	add(&proto.Request{Op: proto.OpPipeCreate})
	pipe := proto.InodeID{Server: 0, Local: 4}
	steps = append(steps, step{payload: (&proto.Request{Op: proto.OpPipeRead, Target: pipe, Count: 8}).Marshal(), park: true})
	add(&proto.Request{Op: proto.OpPipeWrite, Target: pipe, Data: []byte("wake")})
	add(&proto.Request{Op: proto.Op(999)})
	steps = append(steps, step{payload: []byte{1, 2}})

	type outcome struct {
		replies [][]byte
		at      []sim.Cycles // each reply's SentAt and ArriveAt
		clocks  []sim.Cycles
		stats   Stats
		calls   int // invalidations the peer received
		inline  uint64
	}
	run := func(inline bool) outcome {
		h := turnaroundHarness(t) // replies wait for their commit point
		if !inline {
			h.srv.ep.Inbox.SetServe(nil)
		}
		other := peer{ep: h.net.NewClientEndpoint(1)}
		var out outcome
		var parked *msg.Future
		for i, st := range steps {
			if inline {
				waitIdle(t, h.srv.ep.Inbox)
			}
			from := h.ep
			if i == 1 {
				from = other.ep
			}
			sentAt := sim.Cycles(10000 * (i + 1))
			payload := append([]byte(nil), st.payload...)
			if st.park {
				f, err := h.net.SendAsync(from, h.srv.EndpointID(), proto.KindRequest, payload, sentAt)
				if err != nil {
					t.Fatal(err)
				}
				parked = f
				continue
			}
			env, err := h.net.RPC(from, h.srv.EndpointID(), proto.KindRequest, payload, sentAt)
			if err != nil {
				t.Fatal(err)
			}
			envs := []msg.Envelope{env}
			if parked != nil {
				woken, err := parked.Await()
				if err != nil {
					t.Fatal(err)
				}
				envs, parked = append(envs, woken), nil
			}
			for _, e := range envs {
				out.replies = append(out.replies, append([]byte(nil), e.Payload...))
				out.at = append(out.at, e.SentAt, e.ArriveAt)
			}
			out.clocks = append(out.clocks, h.srv.Clock())
		}
		out.calls = len(drain(t, other))
		out.stats = h.srv.Stats()
		out.inline = h.srv.ep.Inbox.InlineServes()
		return out
	}
	byLoop, inline := run(false), run(true)
	if byLoop.inline != 0 {
		t.Fatalf("a server without a serve hook served %d requests inline", byLoop.inline)
	}
	if want := uint64(len(steps)); inline.inline != want {
		t.Fatalf("an idle server served %d of %d requests inline", inline.inline, want)
	}
	for i := range byLoop.replies {
		if !bytes.Equal(byLoop.replies[i], inline.replies[i]) {
			t.Errorf("reply %d: loop %x, inline %x", i, byLoop.replies[i], inline.replies[i])
		}
	}
	if !reflect.DeepEqual(byLoop.at, inline.at) {
		t.Errorf("reply times: loop %v, inline %v", byLoop.at, inline.at)
	}
	if !reflect.DeepEqual(byLoop.clocks, inline.clocks) {
		t.Errorf("server clocks: loop %v, inline %v", byLoop.clocks, inline.clocks)
	}
	if !reflect.DeepEqual(byLoop.stats, inline.stats) {
		t.Errorf("stats: loop %+v, inline %+v", byLoop.stats, inline.stats)
	}
	if byLoop.calls != 1 || inline.calls != 1 {
		t.Errorf("the peer was called back %d times by the loop and %d inline, want 1", byLoop.calls, inline.calls)
	}
}

// TestInlineServeGatedInboxNeverInline: under the parallel engine a file
// server's inbox serves nothing inline — neither the first request after the
// switch, which finds the loop asleep in the ungated pop it entered before
// it, nor any later one, which finds it in the gated pop.
func TestInlineServeGatedInboxNeverInline(t *testing.T) {
	h := newHarness(t)
	waitIdle(t, h.srv.ep.Inbox)
	h.net.SetGate(sim.NewGate())
	for i := 0; i < 4; i++ {
		h.callOK(&proto.Request{Op: proto.OpStat, Target: proto.RootInode})
	}
	if n := h.srv.ep.Inbox.InlineServes(); n != 0 {
		t.Fatalf("a gated file server served %d requests inline", n)
	}
	if st := h.srv.Stats(); st.Ops[proto.OpStat] != 4 {
		t.Fatalf("the loop served %d stats, want 4", st.Ops[proto.OpStat])
	}
}

// TestInlineServeReplPlaneUnderGate: the replication plane pops ungated under
// either engine, so a message that finds it idle is served on its sender's
// goroutine under the parallel engine too.
func TestInlineServeReplPlaneUnderGate(t *testing.T) {
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	network.SetGate(sim.NewGate())
	dram := ncc.NewDRAM(64, 512)
	srv := New(Config{
		ID: 0, Core: 0, NumServers: 1, Machine: machine, Network: network,
		DRAM: dram, Partition: ncc.PartitionDRAM(dram, 1)[0], Repl: repl.Sync,
	})
	srv.Start()
	t.Cleanup(srv.Stop)
	sender := network.NewEndpoint(1)
	sender.Transient = true // a primary's sending side
	rep, _ := srv.ReplEndpointID()
	waitIdle(t, srv.replEP.Inbox)
	for i := 0; i < 3; i++ {
		// A seal for a primary it holds no replica of is answered empty.
		if _, err := network.RPC(sender, rep, proto.KindReplSeal, []byte{0xff}, sim.Cycles(1000*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.replEP.Inbox.InlineServes(); n != 3 {
		t.Fatalf("the replication plane served %d of 3 messages inline", n)
	}
}

// TestInlineServeCrashFallsBackToQueue: a crash request that finds the loop
// idle is declined by the hook and served by the loop, which it stops; what
// is sent to the crashed server waits in its inbox, and after Recover an idle
// server serves inline again.
func TestInlineServeCrashFallsBackToQueue(t *testing.T) {
	h := turnaroundHarness(t)
	h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "a", Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
	waitIdle(t, h.srv.ep.Inbox)
	before := h.srv.ep.Inbox.InlineServes()
	if _, err := h.net.RPC(h.ep, h.srv.EndpointID(), proto.KindCrash, wire.AppendBool(nil, false), 0); err != nil {
		t.Fatal(err)
	}
	if !h.srv.Crashed() {
		t.Fatal("the crash request did not crash the server")
	}
	if n := h.srv.ep.Inbox.InlineServes(); n != before {
		t.Fatalf("the crash request was served inline")
	}
	fut, err := h.net.SendAsync(h.ep, h.srv.EndpointID(), proto.KindRequest,
		(&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "a"}).Marshal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.srv.ep.Inbox.Len() != 1 {
		t.Fatal("a request to a crashed server is not waiting in its inbox")
	}
	if _, _, err := h.srv.Recover(0); err != nil {
		t.Fatal(err)
	}
	env, err := fut.Await()
	if err != nil {
		t.Fatal(err)
	}
	resp := &proto.Response{}
	if err := proto.UnmarshalResponseInto(resp, env.Payload); err != nil || resp.Err != fsapi.OK {
		t.Fatalf("the lookup queued across the crash: %v, %v", err, resp.Err)
	}
	waitIdle(t, h.srv.ep.Inbox)
	h.callOK(&proto.Request{Op: proto.OpStat, Target: proto.RootInode})
	if n := h.srv.ep.Inbox.InlineServes(); n != before+1 {
		t.Fatalf("a recovered idle server served %d requests inline, want 1", n-before)
	}
}

// TestInlineServeAllocs: a steady-state RPC to an idle server is served on
// the caller's goroutine and allocates nothing.
func TestInlineServeAllocs(t *testing.T) {
	h := newHarness(t)
	req := &proto.Request{Op: proto.OpStat, Target: proto.RootInode}
	resp := &proto.Response{}
	roundTrip := func() {
		payload := req.AppendTo(h.ep.GetBuf(req.SizeHint()))
		env, err := h.net.RPC(h.ep, h.srv.EndpointID(), proto.KindRequest, payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.UnmarshalResponseInto(resp, env.Payload); err != nil {
			t.Fatal(err)
		}
		h.ep.PutBuf(env.Payload)
	}
	waitIdle(t, h.srv.ep.Inbox)
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	before := h.srv.ep.Inbox.InlineServes()
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, roundTrip); allocs != 0 {
		t.Fatalf("a steady-state inline RPC allocated %.2f/op, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the runs.
	if n := h.srv.ep.Inbox.InlineServes() - before; n != runs+1 {
		t.Fatalf("%d of %d RPCs were served inline", n, runs+1)
	}
}
