package server

import (
	"reflect"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/sim"
)

// harness drives one file server directly at the protocol level, playing the
// role of a client library.
type harness struct {
	t       *testing.T
	srv     *Server
	net     *msg.Network
	ep      *msg.Endpoint
	machine *sim.Machine
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 512)
	parts := ncc.PartitionDRAM(dram, 1)
	registry := NewClientRegistry()
	srv := New(Config{
		ID:         0,
		Core:       0,
		NumServers: 1,
		Machine:    machine,
		Network:    network,
		DRAM:       dram,
		Partition:  parts[0],
		Registry:   registry,
		CoLocated:  true,
	})
	srv.Start()
	t.Cleanup(srv.Stop)
	ep := network.NewEndpoint(1)
	registry.Register(7, ep.ID)
	return &harness{t: t, srv: srv, net: network, ep: ep, machine: machine}
}

// call sends a request and waits for the response.
func (h *harness) call(req *proto.Request) *proto.Response {
	h.t.Helper()
	req.ClientID = 7
	env, err := h.net.RPC(h.ep, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := proto.UnmarshalResponse(env.Payload)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp
}

// callOK sends a request and fails the test on a protocol error.
func (h *harness) callOK(req *proto.Request) *proto.Response {
	h.t.Helper()
	resp := h.call(req)
	if resp.Err != fsapi.OK {
		h.t.Fatalf("%s failed: %v", req.Op, resp.Err)
	}
	return resp
}

func TestServerRootInodeExists(t *testing.T) {
	h := newHarness(t)
	resp := h.callOK(&proto.Request{Op: proto.OpStat, Target: proto.RootInode})
	if resp.Stat.Ftype != fsapi.TypeDir {
		t.Fatalf("root is %v, want directory", resp.Stat.Ftype)
	}
	// Only server 0 stores the root; a stale reference elsewhere fails.
	bad := h.call(&proto.Request{Op: proto.OpStat, Target: proto.InodeID{Server: 3, Local: 1}})
	if bad.Err != fsapi.ESTALE {
		t.Fatalf("foreign inode: %v", bad.Err)
	}
}

func TestServerCreateLookupUnlink(t *testing.T) {
	h := newHarness(t)
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "f", Mode: fsapi.Mode644,
		Ftype: fsapi.TypeRegular, WantOpen: true,
	})
	if created.Ino.IsNil() {
		t.Fatal("create returned nil inode")
	}
	look := h.callOK(&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "f"})
	if look.Ino != created.Ino {
		t.Fatal("lookup returned a different inode")
	}
	// A second exclusive create reports EEXIST with the existing location.
	dup := h.call(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "f", Exclusive: true, Ftype: fsapi.TypeRegular,
	})
	if dup.Err != fsapi.EEXIST || dup.Ino != created.Ino {
		t.Fatalf("duplicate create: err=%v ino=%v", dup.Err, dup.Ino)
	}
	// Remove the entry, then the inode.
	rm := h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "f", Ftype: fsapi.TypeRegular})
	if rm.Ino != created.Ino {
		t.Fatal("rm_map returned wrong inode")
	}
	h.callOK(&proto.Request{Op: proto.OpUnlinkInode, Target: created.Ino})
	if resp := h.call(&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "f"}); resp.Err != fsapi.ENOENT {
		t.Fatalf("lookup after unlink: %v", resp.Err)
	}
}

func TestServerUnlinkedInodeSurvivesOpenDescriptors(t *testing.T) {
	h := newHarness(t)
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "victim",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true,
	})
	// Write some data through the server path so blocks get allocated.
	h.callOK(&proto.Request{Op: proto.OpWriteAt, Target: created.Ino, Offset: 0, Data: []byte("keep me")})
	// Unlink while the descriptor (WantOpen) is still registered.
	h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "victim", Ftype: fsapi.TypeRegular})
	h.callOK(&proto.Request{Op: proto.OpUnlinkInode, Target: created.Ino})
	read := h.callOK(&proto.Request{Op: proto.OpReadAt, Target: created.Ino, Count: 16})
	if string(read.Data) != "keep me" {
		t.Fatalf("unlinked file data lost: %q", read.Data)
	}
	// After the last close the inode is reaped.
	h.callOK(&proto.Request{Op: proto.OpCloseInode, Target: created.Ino})
	if resp := h.call(&proto.Request{Op: proto.OpStat, Target: created.Ino}); resp.Err != fsapi.ENOENT {
		t.Fatalf("inode should be gone after last close, got %v", resp.Err)
	}
}

func TestServerTruncateDefersBlockReuse(t *testing.T) {
	h := newHarness(t)
	free := h.srv.cfg.Partition.FreeCount()
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "big",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true,
	})
	h.callOK(&proto.Request{Op: proto.OpExtend, Target: created.Ino, Size: 2048})
	if got := h.srv.cfg.Partition.FreeCount(); got != free-4 {
		t.Fatalf("expected 4 blocks allocated, free went %d -> %d", free, got)
	}
	// Truncate while a descriptor is open: blocks must NOT return to the
	// free list yet (§3.2).
	h.callOK(&proto.Request{Op: proto.OpTruncate, Target: created.Ino, Size: 0})
	if got := h.srv.cfg.Partition.FreeCount(); got != free-4 {
		t.Fatalf("blocks reused while file still open: free=%d", got)
	}
	// After the last descriptor closes they are reclaimed.
	h.callOK(&proto.Request{Op: proto.OpCloseInode, Target: created.Ino})
	if got := h.srv.cfg.Partition.FreeCount(); got != free {
		t.Fatalf("blocks not reclaimed after close: free=%d want %d", got, free)
	}
}

// TestServerFailedExtendKeepsNothing: an EXTEND the partition cannot back
// answers ENOSPC and leaves the file's map, its version and the partition's
// free count as they were, though the partition had some blocks to give.
func TestServerFailedExtendKeepsNothing(t *testing.T) {
	h := newHarness(t)
	part := h.srv.cfg.Partition
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "f",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true,
	})
	grown := h.callOK(&proto.Request{Op: proto.OpExtend, Target: created.Ino, Size: 1024})
	free := part.FreeCount()
	too := int64(part.Total()+1) * int64(h.srv.cfg.DRAM.BlockSize())
	if resp := h.call(&proto.Request{Op: proto.OpExtend, Target: created.Ino, Size: too}); resp.Err != fsapi.ENOSPC {
		t.Fatalf("EXTEND past the partition: %v, want ENOSPC", resp.Err)
	}
	if got := part.FreeCount(); got != free {
		t.Fatalf("free blocks %d after the failed EXTEND, want %d", got, free)
	}
	got := h.callOK(&proto.Request{Op: proto.OpGetBlocks, Target: created.Ino})
	if !reflect.DeepEqual(got.Extents, grown.Extents) || got.Version != grown.Version {
		t.Fatalf("GET_BLOCKS after the failed EXTEND: %v at version %d, want %v at %d",
			got.Extents, got.Version, grown.Extents, grown.Version)
	}
}

func TestServerRmdirPrepareCommitAbort(t *testing.T) {
	h := newHarness(t)
	dir := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d",
		Mode: fsapi.Mode755, Ftype: fsapi.TypeDir,
	})
	// Put an entry in the directory: prepare must refuse.
	h.callOK(&proto.Request{Op: proto.OpAddMap, Dir: dir.Ino, Name: "child", Target: proto.InodeID{Server: 0, Local: 99}, Ftype: fsapi.TypeRegular})
	h.callOK(&proto.Request{Op: proto.OpRmdirLock, Target: dir.Ino})
	if resp := h.call(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir.Ino, Target: dir.Ino}); resp.Err != fsapi.ENOTEMPTY {
		t.Fatalf("prepare on non-empty shard: %v", resp.Err)
	}
	h.callOK(&proto.Request{Op: proto.OpRmdirAbort, Dir: dir.Ino, Target: dir.Ino})
	h.callOK(&proto.Request{Op: proto.OpRmdirUnlock, Target: dir.Ino})

	// Empty the directory and run the full protocol.
	h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: dir.Ino, Name: "child"})
	h.callOK(&proto.Request{Op: proto.OpRmdirLock, Target: dir.Ino})
	h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir.Ino, Target: dir.Ino})
	h.callOK(&proto.Request{Op: proto.OpRmdirCommit, Dir: dir.Ino, Target: dir.Ino})
	h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "d", Ftype: fsapi.TypeDir})
	h.callOK(&proto.Request{Op: proto.OpRmdirFinish, Target: dir.Ino})

	// The directory is gone: new entries cannot be created in it.
	if resp := h.call(&proto.Request{Op: proto.OpAddMap, Dir: dir.Ino, Name: "late", Target: proto.NilInode, Ftype: fsapi.TypeRegular}); resp.Err != fsapi.ENOENT {
		t.Fatalf("create in removed dir: %v", resp.Err)
	}
}

func TestServerRmdirMarkParksCreates(t *testing.T) {
	h := newHarness(t)
	dir := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "racing",
		Mode: fsapi.Mode755, Ftype: fsapi.TypeDir,
	})
	h.callOK(&proto.Request{Op: proto.OpRmdirLock, Target: dir.Ino})
	h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir.Ino, Target: dir.Ino})

	// A create that races with the marked directory is parked: issue it
	// asynchronously, then abort the rmdir and observe the create succeed.
	req := &proto.Request{Op: proto.OpCreateCoalesced, Dir: dir.Ino, Name: "racer", Ftype: fsapi.TypeRegular, ClientID: 7}
	reply := msg.NewQueue()
	if _, err := h.net.Send(h.ep, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0, reply); err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.TryPop(); ok {
		t.Fatal("create should have been parked while the directory is marked")
	}
	h.callOK(&proto.Request{Op: proto.OpRmdirAbort, Dir: dir.Ino, Target: dir.Ino})
	h.callOK(&proto.Request{Op: proto.OpRmdirUnlock, Target: dir.Ino})
	env, ok := reply.PopWait()
	if !ok {
		t.Fatal("parked create never answered")
	}
	resp, err := proto.UnmarshalResponse(env.Payload)
	if err != nil || resp.Err != fsapi.OK {
		t.Fatalf("parked create failed: %v %v", err, resp.Err)
	}
}

func TestServerSharedFdOffsetAndRefcounts(t *testing.T) {
	h := newHarness(t)
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "shared",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true,
	})
	h.callOK(&proto.Request{Op: proto.OpWriteAt, Target: created.Ino, Data: []byte("0123456789")})

	share := h.callOK(&proto.Request{Op: proto.OpFdShare, Target: created.Ino, Offset: 0})
	if share.Refs != 1 {
		t.Fatalf("share refs = %d, want 1", share.Refs)
	}
	h.callOK(&proto.Request{Op: proto.OpFdIncRef, Fd: share.Fd, Target: created.Ino})

	r1 := h.callOK(&proto.Request{Op: proto.OpFdRead, Fd: share.Fd, Target: created.Ino, Count: 4})
	r2 := h.callOK(&proto.Request{Op: proto.OpFdRead, Fd: share.Fd, Target: created.Ino, Count: 4})
	if string(r1.Data) != "0123" || string(r2.Data) != "4567" {
		t.Fatalf("shared reads %q %q", r1.Data, r2.Data)
	}
	// One holder closes; the remaining holder sees refs drop to 1 and can
	// pull the offset back.
	dec := h.callOK(&proto.Request{Op: proto.OpFdDecRef, Fd: share.Fd, Target: created.Ino})
	if dec.Refs != 1 {
		t.Fatalf("refs after decref = %d", dec.Refs)
	}
	un := h.callOK(&proto.Request{Op: proto.OpFdUnshare, Fd: share.Fd, Target: created.Ino})
	if un.Offset != 8 {
		t.Fatalf("unshare offset = %d, want 8", un.Offset)
	}
	if resp := h.call(&proto.Request{Op: proto.OpFdRead, Fd: share.Fd, Target: created.Ino, Count: 1}); resp.Err != fsapi.EBADF {
		t.Fatalf("read after unshare: %v", resp.Err)
	}
}

func TestServerPipeBlockingAndEOF(t *testing.T) {
	h := newHarness(t)
	pipe := h.callOK(&proto.Request{Op: proto.OpPipeCreate})

	// A read on an empty pipe parks until data arrives.
	readReq := &proto.Request{Op: proto.OpPipeRead, Target: pipe.Ino, Count: 16, ClientID: 7}
	reply := msg.NewQueue()
	if _, err := h.net.Send(h.ep, h.srv.EndpointID(), proto.KindRequest, readReq.Marshal(), 0, reply); err != nil {
		t.Fatal(err)
	}
	h.callOK(&proto.Request{Op: proto.OpPipeWrite, Target: pipe.Ino, Data: []byte("wake")})
	env, ok := reply.PopWait()
	if !ok {
		t.Fatal("parked pipe read never answered")
	}
	resp, _ := proto.UnmarshalResponse(env.Payload)
	if string(resp.Data) != "wake" {
		t.Fatalf("pipe read %q", resp.Data)
	}

	// Closing the last writer delivers EOF to readers.
	h.callOK(&proto.Request{Op: proto.OpPipeCloseWrite, Target: pipe.Ino})
	eof := h.callOK(&proto.Request{Op: proto.OpPipeRead, Target: pipe.Ino, Count: 4})
	if eof.N != 0 {
		t.Fatalf("expected EOF, got %d bytes", eof.N)
	}
	// Writing with no readers yields EPIPE.
	h.callOK(&proto.Request{Op: proto.OpPipeCloseRead, Target: pipe.Ino})
	pipe2 := h.callOK(&proto.Request{Op: proto.OpPipeCreate})
	h.callOK(&proto.Request{Op: proto.OpPipeCloseRead, Target: pipe2.Ino})
	if resp := h.call(&proto.Request{Op: proto.OpPipeWrite, Target: pipe2.Ino, Data: []byte("x")}); resp.Err != fsapi.EPIPE {
		t.Fatalf("write to readerless pipe: %v", resp.Err)
	}
}

func TestServerInvalidationCallbacks(t *testing.T) {
	h := newHarness(t)
	// Client 7 looks up an entry (gets tracked), then another client (id 8,
	// registered on a second endpoint) removes it; client 7 must receive an
	// invalidation callback.
	other := h.net.NewEndpoint(1)
	h.srv.cfg.Registry.Register(8, other.ID)

	h.callOK(&proto.Request{Op: proto.OpAddMap, Dir: proto.RootInode, Name: "watched", Target: proto.InodeID{Server: 0, Local: 50}, Ftype: fsapi.TypeRegular})
	h.callOK(&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "watched"})

	// The removal is issued by client 8, which has the entry cached too.
	for _, op := range []proto.Op{proto.OpLookup, proto.OpRmMap} {
		req := &proto.Request{Op: op, Dir: proto.RootInode, Name: "watched", ClientID: 8}
		if _, err := h.net.RPC(other, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0); err != nil {
			t.Fatal(err)
		}
	}
	env, ok := h.ep.Callbacks.TryPop()
	if !ok {
		t.Fatal("no invalidation callback delivered to the caching client")
	}
	// The requester dropped the entry itself: it is not told what it did.
	if _, ok := other.Callbacks.TryPop(); ok {
		t.Fatal("the server called the requester back about its own removal")
	}
	iv, err := proto.UnmarshalInvalidation(env.Payload)
	if err != nil || iv.Name != "watched" {
		t.Fatalf("bad invalidation: %v %v", iv, err)
	}
	if n := h.srv.Stats().Invalidations; n != 1 {
		t.Fatalf("server counted %d invalidations, want 1", n)
	}
}

func TestServerRejectsMalformedAndUnknown(t *testing.T) {
	h := newHarness(t)
	// Unknown op.
	if resp := h.call(&proto.Request{Op: proto.Op(999)}); resp.Err != fsapi.ENOSYS {
		t.Fatalf("unknown op: %v", resp.Err)
	}
	// Malformed payload.
	env, err := h.net.RPC(h.ep, h.srv.EndpointID(), proto.KindRequest, []byte{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := proto.UnmarshalResponse(env.Payload)
	if resp.Err != fsapi.EINVAL {
		t.Fatalf("malformed request: %v", resp.Err)
	}
	// Invalid names.
	if resp := h.call(&proto.Request{Op: proto.OpAddMap, Dir: proto.RootInode, Name: "a/b", Target: proto.NilInode}); resp.Err != fsapi.EINVAL {
		t.Fatalf("slash in name: %v", resp.Err)
	}
}

func TestServerStatsTracksOps(t *testing.T) {
	h := newHarness(t)
	h.callOK(&proto.Request{Op: proto.OpStat, Target: proto.RootInode})
	h.callOK(&proto.Request{Op: proto.OpStat, Target: proto.RootInode})
	st := h.srv.Stats()
	if st.Ops[proto.OpStat] != 2 {
		t.Fatalf("stat count = %d", st.Ops[proto.OpStat])
	}
	if h.srv.Clock() == 0 {
		t.Fatal("server clock did not advance")
	}
	if h.srv.ID() != 0 || h.srv.Core() != 0 {
		t.Fatal("identity accessors wrong")
	}
}

// callBatch sends sub-requests as one OpBatch envelope and returns the
// decoded per-sub-op responses.
func (h *harness) callBatch(stopOnErr bool, reqs ...*proto.Request) []*proto.Response {
	h.t.Helper()
	for _, r := range reqs {
		r.ClientID = 7
	}
	env := h.callOK(&proto.Request{Op: proto.OpBatch, Subs: reqs, StopOnErr: stopOnErr})
	resps, err := proto.UnmarshalBatchResponses(env.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		h.t.Fatalf("batch returned %d responses for %d sub-ops", len(resps), len(reqs))
	}
	return resps
}

// TestBatchSubResponsesKeepTheirOwnExtents: handlers answer in the server's
// scratch response and scratch extent list; every sub-response of a batch
// must carry the block map of its own file, in a second batch through the
// same recycled structs too.
func TestBatchSubResponsesKeepTheirOwnExtents(t *testing.T) {
	h := newHarness(t)
	var inos []proto.InodeID
	for _, name := range []string{"one", "two", "three"} {
		inos = append(inos, h.callOK(&proto.Request{
			Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name, Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular,
		}).Ino)
	}
	for round, sizes := range [][]int64{{512, 2048, 1024}, {4096, 2048, 512}} {
		var subs []*proto.Request
		for i, ino := range inos {
			subs = append(subs, &proto.Request{Op: proto.OpExtend, Target: ino, Size: sizes[i]})
		}
		resps := h.callBatch(false, subs...)
		seen := make(map[uint64]int)
		for i, r := range resps {
			alone := h.callOK(&proto.Request{Op: proto.OpGetBlocks, Target: inos[i]})
			if r.Err != fsapi.OK || !reflect.DeepEqual(r.Extents, alone.Extents) || proto.BlockCount(r.Extents) == 0 {
				t.Fatalf("round %d, sub-response %d carries extents %+v, the file's map is %+v", round, i, r.Extents, alone.Extents)
			}
			for _, e := range r.Extents {
				for b := e.Start; b < e.Start+e.Count; b++ {
					if other, dup := seen[b]; dup {
						t.Fatalf("round %d: block %d is in the maps of sub-responses %d and %d", round, b, other, i)
					}
					seen[b] = i
				}
			}
		}
	}
}

func TestServerBatchCreateStatUnlink(t *testing.T) {
	h := newHarness(t)
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "b", Mode: fsapi.Mode644,
		Ftype: fsapi.TypeRegular,
	})

	// Independent batch: stat + extend + set-size in one message.
	resps := h.callBatch(false,
		&proto.Request{Op: proto.OpStat, Target: created.Ino},
		&proto.Request{Op: proto.OpExtend, Target: created.Ino, Size: 1024},
		&proto.Request{Op: proto.OpSetSize, Target: created.Ino, Size: 600},
	)
	for i, r := range resps {
		if r.Err != fsapi.OK {
			t.Fatalf("sub-op %d failed: %v", i, r.Err)
		}
	}
	if proto.BlockCount(resps[1].Extents) == 0 {
		t.Fatal("extend inside a batch allocated no blocks")
	}
	after := h.callOK(&proto.Request{Op: proto.OpStat, Target: created.Ino})
	if after.Stat.Size != 600 {
		t.Fatalf("batched set-size not applied: size=%d", after.Stat.Size)
	}

	// Dependent batch: RM_MAP then UNLINK_INODE with stop-on-error.
	un := h.callBatch(true,
		&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "b", Ftype: fsapi.TypeRegular},
		&proto.Request{Op: proto.OpUnlinkInode, Target: created.Ino},
	)
	if un[0].Err != fsapi.OK || un[1].Err != fsapi.OK {
		t.Fatalf("unlink batch failed: %v %v", un[0].Err, un[1].Err)
	}
	if gone := h.call(&proto.Request{Op: proto.OpStat, Target: created.Ino}); gone.Err != fsapi.ENOENT {
		t.Fatalf("inode survived batched unlink: %v", gone.Err)
	}

	st := h.srv.Stats()
	if st.BatchedOps != 5 {
		t.Fatalf("BatchedOps = %d, want 5", st.BatchedOps)
	}
	if st.Ops[proto.OpBatch] != 2 {
		t.Fatalf("OpBatch count = %d, want 2", st.Ops[proto.OpBatch])
	}
}

func TestServerBatchStopOnError(t *testing.T) {
	h := newHarness(t)
	// RM_MAP of a missing entry fails; the dependent unlink must be skipped
	// with ECANCELED, not executed.
	created := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "keep", Mode: fsapi.Mode644,
		Ftype: fsapi.TypeRegular,
	})
	resps := h.callBatch(true,
		&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "missing", Ftype: fsapi.TypeRegular},
		&proto.Request{Op: proto.OpUnlinkInode, Target: created.Ino},
	)
	if resps[0].Err != fsapi.ENOENT {
		t.Fatalf("head sub-op: %v, want ENOENT", resps[0].Err)
	}
	if resps[1].Err != fsapi.ECANCELED {
		t.Fatalf("tail sub-op: %v, want ECANCELED", resps[1].Err)
	}
	if st := h.callOK(&proto.Request{Op: proto.OpStat, Target: created.Ino}); st.Stat.Nlink != 1 {
		t.Fatalf("skipped unlink still ran: nlink=%d", st.Stat.Nlink)
	}

	// Without stop-on-error the independent sub-ops all run.
	resps = h.callBatch(false,
		&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "missing", Ftype: fsapi.TypeRegular},
		&proto.Request{Op: proto.OpStat, Target: created.Ino},
	)
	if resps[1].Err != fsapi.OK {
		t.Fatalf("independent sub-op after failure: %v", resps[1].Err)
	}
}

func TestServerBatchRejectsUnbatchableOps(t *testing.T) {
	h := newHarness(t)
	resps := h.callBatch(false,
		&proto.Request{Op: proto.OpPing},
		&proto.Request{Op: proto.OpRmdirLock, Target: proto.RootInode},
		&proto.Request{Op: proto.OpPipeRead, Target: proto.RootInode},
	)
	if resps[0].Err != fsapi.OK {
		t.Fatalf("ping in batch: %v", resps[0].Err)
	}
	if resps[1].Err != fsapi.ENOSYS || resps[2].Err != fsapi.ENOSYS {
		t.Fatalf("parking ops must be rejected: %v %v", resps[1].Err, resps[2].Err)
	}
	// A malformed batch payload is a protocol error on the envelope.
	bad := h.call(&proto.Request{Op: proto.OpBatch, Data: []byte{1, 2, 3}})
	if bad.Err != fsapi.EINVAL {
		t.Fatalf("malformed batch: %v", bad.Err)
	}
}

func TestServerBatchPaysSingleArrivalOverhead(t *testing.T) {
	// The same three ops cost less as one batch than as three messages:
	// the batch pays MsgRecv (and co-location overhead) once.
	one := newHarness(t)
	ino := one.callOK(&proto.Request{Op: proto.OpMknod, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644})
	for i := 0; i < 3; i++ {
		one.callOK(&proto.Request{Op: proto.OpStat, Target: ino.Ino})
	}
	separate := one.srv.Clock()

	two := newHarness(t)
	ino2 := two.callOK(&proto.Request{Op: proto.OpMknod, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644})
	two.callBatch(false,
		&proto.Request{Op: proto.OpStat, Target: ino2.Ino},
		&proto.Request{Op: proto.OpStat, Target: ino2.Ino},
		&proto.Request{Op: proto.OpStat, Target: ino2.Ino},
	)
	batched := two.srv.Clock()
	if batched >= separate {
		t.Fatalf("batched clock %d should be below separate-message clock %d", batched, separate)
	}
}

func TestServerBatchParksOnMarkedShardAndResumes(t *testing.T) {
	h := newHarness(t)
	dir := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d", Mode: fsapi.Mode755,
		Ftype: fsapi.TypeDir,
	})
	// Phase 1 of rmdir marks the (empty) shard; a batch touching the marked
	// directory must park whole — before any sub-op ran — and resume after
	// the abort.
	h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir.Ino, Target: dir.Ino})

	env := &proto.Request{Op: proto.OpBatch, ClientID: 7, Subs: []*proto.Request{
		{Op: proto.OpLookup, Dir: dir.Ino, Name: "nope", ClientID: 7},
		{Op: proto.OpStat, Target: dir.Ino, ClientID: 7},
	}}
	before := h.parked()
	fut, err := h.net.SendAsync(h.ep, h.srv.EndpointID(), proto.KindRequest, env.Marshal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.awaitParked(before, 1)
	// While it is parked the server serves other batches, through the same
	// recycled sub-request structs and many request structs: the parked
	// envelope keeps its payload, and the re-dispatch decodes it again.
	for i := 0; i < 2*reqFreeCap; i++ {
		other := h.callBatch(true,
			&proto.Request{Op: proto.OpStat, Target: proto.RootInode},
			&proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: "d"},
			&proto.Request{Op: proto.OpPing},
		)
		if other[0].Err != fsapi.OK || other[1].Ino != dir.Ino || other[2].Err != fsapi.OK {
			t.Fatalf("a batch served while another is parked: %+v", other)
		}
	}
	h.callOK(&proto.Request{Op: proto.OpRmdirAbort, Dir: dir.Ino, Target: dir.Ino})
	renv, err := fut.Await()
	if err != nil {
		t.Fatal(err)
	}
	outer, err := proto.UnmarshalResponse(renv.Payload)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := proto.UnmarshalBatchResponses(outer.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || resps[0].Err != fsapi.ENOENT {
		t.Fatalf("lookup after unpark: %d sub-responses, first %v, want 2 and ENOENT", len(resps), resps[0].Err)
	}
	if resps[1].Err != fsapi.OK || resps[1].Stat.Ino != dir.Ino {
		t.Fatalf("stat after unpark: %v, inode %v", resps[1].Err, resps[1].Stat.Ino)
	}
}
