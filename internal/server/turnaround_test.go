package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wal"
)

// turnaroundHarness is newHarness with a placement map (so the epoch gate
// runs) and a write-ahead log (so mutations commit before they are answered).
func turnaroundHarness(t *testing.T) *harness {
	t.Helper()
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 512)
	log, err := wal.Open(wal.Config{
		FlushCycles: machine.Cost.WalFlush, AppendPerLine: machine.Cost.WalPerLine,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		ID: 0, Core: 0, NumServers: 1, Machine: machine, Network: network,
		DRAM: dram, Partition: ncc.PartitionDRAM(dram, 1)[0],
		CoLocated: true, Log: log, Placement: place.New(place.PolicyModulo, []int32{0}, 1),
	})
	srv.Start()
	t.Cleanup(srv.Stop)
	return &harness{t: t, srv: srv, net: network, ep: network.NewEndpoint(1), machine: machine}
}

// exchange sends one payload and returns how long after the request's arrival
// the server sent its reply, with the decoded reply.
func (h *harness) exchange(payload []byte, sentAt sim.Cycles) (sim.Cycles, *proto.Response) {
	h.t.Helper()
	reply := msg.NewQueue()
	arrive, err := h.net.Send(h.ep, h.srv.EndpointID(), proto.KindRequest, payload, sentAt, reply)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.answered(reply, arrive)
}

func (h *harness) answered(reply *msg.Queue, arrive sim.Cycles) (sim.Cycles, *proto.Response) {
	h.t.Helper()
	got := make(chan msg.Envelope, 1)
	go func() {
		env, _ := reply.PopWait()
		got <- env
	}()
	select {
	case env := <-got:
		resp := &proto.Response{}
		err := proto.UnmarshalResponseInto(resp, env.Payload)
		if err != nil {
			h.t.Fatal(err)
		}
		return env.SentAt - arrive, resp
	case <-time.After(5 * time.Second):
		reply.Close()
		h.t.Fatal("request never answered")
		return 0, nil
	}
}

// TestNoReplyBeatsTurnaround: the parallel engine lets a blocked requester's
// frontier run to arrival + the file server's declared turnaround + the way
// back (DESIGN.md §13, "Lookahead"), so no reply whatsoever may leave the
// server sooner than that after its request arrived — not a refusal, not an
// answer to bytes that do not decode, not one to a request served late.
func TestNoReplyBeatsTurnaround(t *testing.T) {
	probe := turnaroundHarness(t)
	dst, _ := probe.net.Endpoint(probe.srv.EndpointID())
	turnaround := dst.Turnaround
	cost := &probe.machine.Cost
	if want := cost.MsgRecv + cost.ContextSwitch + cost.CachePollution + cost.MsgSend; turnaround != want {
		t.Fatalf("a co-located server declares turnaround %d, want %d", turnaround, want)
	}
	check := func(what string, took sim.Cycles) {
		t.Helper()
		if took < turnaround {
			t.Errorf("%s: reply sent %d cycles after the request arrived, turnaround is %d", what, took, turnaround)
		}
	}

	// Every op, as a bare request to a fresh server: most are refused, all
	// are answered.
	for op := proto.OpLookup; op < proto.NumOps; op++ {
		if op == proto.OpBatch {
			continue // below, well-formed and not
		}
		h := turnaroundHarness(t)
		took, _ := h.exchange((&proto.Request{Op: op}).Marshal(), 1000)
		check(op.String(), took)
	}
	// The numbers no op has decode (an op is any u16) and index no row.
	for _, op := range []proto.Op{proto.OpInvalid, proto.NumOps, 0xFFFF} {
		h := turnaroundHarness(t)
		took, resp := h.exchange((&proto.Request{Op: op}).Marshal(), 1000)
		if resp.Err != fsapi.ENOSYS {
			t.Errorf("op %d: answered %v, want ENOSYS", uint16(op), resp.Err)
		}
		check(fmt.Sprintf("op %d", uint16(op)), took)
	}

	h := turnaroundHarness(t)
	took, resp := h.exchange([]byte{1, 2}, 1000)
	if resp.Err != fsapi.EINVAL {
		t.Fatalf("malformed payload: %v", resp.Err)
	}
	check("malformed payload", took)
	took, resp = h.exchange((&proto.Request{Op: proto.OpBatch, Data: []byte{1, 2, 3}}).Marshal(), 2000)
	if resp.Err != fsapi.EINVAL {
		t.Fatalf("malformed batch: %v", resp.Err)
	}
	check("malformed batch", took)
	// The server's clock is past both arrivals now; a request stamped in its
	// past queues, and is still charged in full.
	took, _ = h.exchange([]byte{3}, 0)
	check("malformed payload served late", took)

	took, resp = h.exchange((&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "x", Epoch: 5}).Marshal(), 50_000)
	if resp.Err != fsapi.EEPOCH {
		t.Fatalf("stale epoch: %v", resp.Err)
	}
	check("EEPOCH refusal", took)

	took, resp = h.exchange((&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "durable", Mode: fsapi.Mode644,
		Ftype: fsapi.TypeRegular, Epoch: 1,
	}).Marshal(), 60_000)
	if resp.Err != fsapi.OK {
		t.Fatalf("durable create: %v", resp.Err)
	}
	check("durable mutation", took)
	if took < turnaround+cost.WalFlush {
		t.Errorf("durable mutation answered %d cycles after arrival, before its flush (%d) could end", took, cost.WalFlush)
	}

	stat := &proto.Request{Op: proto.OpStat, Target: proto.RootInode}
	took, resp = h.exchange((&proto.Request{Op: proto.OpBatch, Subs: []*proto.Request{stat, stat}}).Marshal(), 90_000)
	if resp.Err != fsapi.OK {
		t.Fatalf("batch: %v", resp.Err)
	}
	check("batch", took)

	// A read parked on an empty pipe is answered while the server serves the
	// write that wakes it.
	_, pipe := h.exchange((&proto.Request{Op: proto.OpPipeCreate}).Marshal(), 100_000)
	reader := msg.NewQueue()
	arrive, err := h.net.Send(h.ep, h.srv.EndpointID(), proto.KindRequest,
		(&proto.Request{Op: proto.OpPipeRead, Target: pipe.Ino, Count: 16}).Marshal(), 110_000, reader)
	if err != nil {
		t.Fatal(err)
	}
	took, _ = h.exchange((&proto.Request{Op: proto.OpPipeWrite, Target: pipe.Ino, Data: []byte("wake")}).Marshal(), 110_100)
	check("pipe write", took)
	took, resp = h.answered(reader, arrive)
	if string(resp.Data) != "wake" {
		t.Fatalf("parked pipe read got %q", resp.Data)
	}
	check("parked-then-woken pipe read", took)
}
