package server

import (
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestServerSteadyStateAllocs pins the tentpole's end-to-end zero-alloc
// property: a full request round trip through a real file server — pooled
// request marshal, wire decode into the server's recycled request struct,
// dispatch, pooled response marshal, pooled client-side decode — performs
// zero heap allocations once the caches are warm. Durability and tracing are
// off (the harness default), matching the steady-state configuration the
// scale sweeps run in.
func TestServerSteadyStateAllocs(t *testing.T) {
	h := newHarness(t)

	// One file to stat by inode, exercising the common metadata hot path.
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "hot",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular,
	})

	req := &proto.Request{Op: proto.OpStat, Target: created.Ino, ClientID: 7}
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
		if resp.Err != fsapi.OK {
			t.Fatalf("stat failed: %v", resp.Err)
		}
	}
	// Warm every free list on both sides (buffers, futures, request structs).
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("steady-state stat round trip allocated %.2f/op, want 0", allocs)
	}

	// A batch is flat too: sub-requests encoded in place in the pooled
	// buffer, decoded into the server's recycled structs, sub-responses
	// encoded in place in the reply and decoded into recycled structs.
	batch := &proto.Request{Op: proto.OpBatch, ClientID: 7, StopOnErr: true, Subs: []*proto.Request{
		{Op: proto.OpStat, Target: created.Ino, ClientID: 7},
		{Op: proto.OpGetBlocks, Target: created.Ino, ClientID: 7},
	}}
	subs := []*proto.Response{{}, {}}
	batchTrip := func() {
		payload := batch.AppendTo(h.ep.GetBuf(batch.SizeHint()))
		env, err := h.net.RPC(h.ep, h.srv.EndpointID(), proto.KindRequest, payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = proto.UnmarshalResponseInto(resp, env.Payload)
		h.ep.PutBuf(env.Payload)
		if err == nil {
			err = proto.UnmarshalBatchResponsesInto(subs, resp.Data)
		}
		if err != nil || subs[0].Err != fsapi.OK || subs[0].Stat.Ino != created.Ino || subs[1].Err != fsapi.OK {
			t.Fatalf("batch failed: %v, %+v", err, subs)
		}
	}
	for i := 0; i < 32; i++ {
		batchTrip()
	}
	if allocs := testing.AllocsPerRun(200, batchTrip); allocs != 0 {
		t.Fatalf("steady-state batch round trip allocated %.2f/op, want 0", allocs)
	}

	// Ping is the minimal request; it must be flat too.
	ping := &proto.Request{Op: proto.OpPing, ClientID: 7}
	pingTrip := func() {
		payload := ping.AppendTo(h.ep.GetBuf(ping.SizeHint()))
		env, err := h.net.RPC(h.ep, h.srv.EndpointID(), proto.KindRequest, payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.UnmarshalResponseInto(resp, env.Payload); err != nil {
			t.Fatal(err)
		}
		h.ep.PutBuf(env.Payload)
	}
	for i := 0; i < 32; i++ {
		pingTrip()
	}
	if allocs := testing.AllocsPerRun(200, pingTrip); allocs != 0 {
		t.Fatalf("steady-state ping round trip allocated %.2f/op, want 0", allocs)
	}
}

// BenchmarkServerStat measures the end-to-end request path through a real
// server; -benchmem should report 0 allocs/op.
func BenchmarkServerStat(b *testing.B) {
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 512)
	parts := ncc.PartitionDRAM(dram, 1)
	registry := NewClientRegistry()
	srv := New(Config{
		ID: 0, Core: 0, NumServers: 1, Machine: machine, Network: network,
		DRAM: dram, Partition: parts[0], Registry: registry, CoLocated: true,
	})
	srv.Start()
	defer srv.Stop()
	ep := network.NewEndpoint(1)
	registry.Register(7, ep.ID)

	call := func(req *proto.Request, resp *proto.Response) {
		payload := req.AppendTo(ep.GetBuf(req.SizeHint()))
		env, err := network.RPC(ep, srv.EndpointID(), proto.KindRequest, payload, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := proto.UnmarshalResponseInto(resp, env.Payload); err != nil {
			b.Fatal(err)
		}
		ep.PutBuf(env.Payload)
	}
	var created proto.Response
	call(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "hot",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, ClientID: 7,
	}, &created)
	if created.Err != fsapi.OK {
		b.Fatalf("create failed: %v", created.Err)
	}
	req := &proto.Request{Op: proto.OpStat, Target: created.Ino, ClientID: 7}
	resp := &proto.Response{}
	for i := 0; i < 32; i++ {
		call(req, resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(req, resp)
	}
}
