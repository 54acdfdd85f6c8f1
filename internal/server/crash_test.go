package server

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wal"
)

// durableServers starts n servers over one network and DRAM, each with a
// write-ahead log, under a placement map of all of them, and returns a
// harness on each; the harnesses share one client endpoint (id 7).
func durableServers(t *testing.T, n int) []*harness {
	t.Helper()
	machine := sim.NewMachine(sim.TopologyForCores(n+1), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 512)
	parts := ncc.PartitionDRAM(dram, n)
	registry := NewClientRegistry()
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	pmap := place.New(place.PolicyModulo, members, 1)
	ep := network.NewEndpoint(1)
	registry.Register(7, ep.ID)
	hs := make([]*harness, n)
	for i := range hs {
		log, err := wal.Open(wal.Config{FlushCycles: machine.Cost.WalFlush, AppendPerLine: machine.Cost.WalPerLine})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{
			ID: i, Core: i, NumServers: n, Machine: machine, Network: network,
			DRAM: dram, Partition: parts[i], Registry: registry,
			CoLocated: true, Log: log, Placement: pmap,
		})
		srv.Start()
		t.Cleanup(srv.Stop)
		hs[i] = &harness{t: t, srv: srv, net: network, ep: ep, machine: machine}
	}
	return hs
}

// restart crashes h's server, keeping its DRAM, and recovers it from its log.
func (h *harness) restart() {
	h.t.Helper()
	h.srv.Crash(false)
	if _, err := h.srv.Recover(); err != nil {
		h.t.Fatal(err)
	}
}

// TestRmdirMarkSurvivesCrash: a server that crashes between an rmdir's
// PREPARE and its COMMIT still holds the directory's shard marked when it
// recovers — the mark is logged — so a create into the directory parks
// instead of filling the shard the COMMIT deletes, and fails with ENOENT
// once the directory is gone. Before the mark was logged the create
// answered OK and the COMMIT deleted the shard with the new entry in it,
// leaving its inode linked from nowhere. With two servers the directory's
// other shard, on a server that did not crash, commits as well: the rmdir
// ends with every shard deleted and no name left in any. A checkpoint taken
// between the two phases carries the mark in the log's place.
func TestRmdirMarkSurvivesCrash(t *testing.T) {
	for _, tc := range []struct {
		servers    int
		checkpoint bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		servers := tc.servers
		label := fmt.Sprintf("%d servers", servers)
		if tc.checkpoint {
			label += ", checkpoint after PREPARE"
		}
		t.Run(label, func(t *testing.T) {
			hs := durableServers(t, servers)
			home := hs[0]
			ps := home.peers(1) // the client running the rmdir; the harness's own creates
			dir := home.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d",
				Mode: fsapi.Mode755, Ftype: fsapi.TypeDir, Distributed: servers > 1}).Ino
			victim := hs[servers-1] // the server holding x's entry, which crashes
			name := "x"
			for i := 0; servers > 1 && place.New(place.PolicyModulo, []int32{0, 1}, 1).Route(proto.Hash(dir, name)) != 1; i++ {
				name = fmt.Sprintf("x%d", i)
			}

			if resp := home.callAs(ps[0], &proto.Request{Op: proto.OpRmdirLock, Target: dir}); resp.Err != fsapi.OK {
				t.Fatalf("RMDIR_LOCK: %v", resp.Err)
			}
			for _, h := range hs {
				if resp := h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirPrepare, Dir: dir, Target: dir}); resp.Err != fsapi.OK {
					t.Fatalf("RMDIR_PREPARE on server %d: %v", h.srv.cfg.ID, resp.Err)
				}
			}
			if tc.checkpoint {
				victim.callOK(&proto.Request{Op: proto.OpCheckpoint})
			}
			victim.restart()

			before := victim.parked()
			create := victim.send(&proto.Request{Op: proto.OpCreateCoalesced, Dir: dir, Name: name,
				Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
			victim.awaitParked(before, 1)

			for _, h := range hs {
				if resp := h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirCommit, Dir: dir, Target: dir}); resp.Err != fsapi.OK {
					t.Fatalf("RMDIR_COMMIT on server %d: %v", h.srv.cfg.ID, resp.Err)
				}
			}
			env, err := create.Await()
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := proto.UnmarshalResponse(env.Payload); err != nil || resp.Err != fsapi.ENOENT {
				t.Fatalf("the parked create answered %v (%v), want ENOENT", resp.Err, err)
			}
			home.callAs(ps[0], &proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "d", Ftype: fsapi.TypeDir})
			if resp := home.callAs(ps[0], &proto.Request{Op: proto.OpRmdirFinish, Target: dir}); resp.Err != fsapi.OK {
				t.Fatalf("RMDIR_FINISH: %v", resp.Err)
			}

			// Nothing is left of d, in memory or in the log: no shard, no
			// mark, no entry, and no inode but the root.
			for _, h := range hs {
				for pass := 0; pass < 2; pass++ {
					if _, ok := h.srv.dirs.Get(dir); ok {
						t.Fatalf("server %d (pass %d) still holds a shard of the removed directory", h.srv.cfg.ID, pass)
					}
					if !h.srv.deadDir(dir) {
						t.Fatalf("server %d (pass %d) does not know the directory is gone", h.srv.cfg.ID, pass)
					}
					var inodes []uint64
					h.srv.inodes.Range(func(local uint64, _ *inode) bool {
						inodes = append(inodes, local)
						return true
					})
					var want []uint64 // the root's, on its server
					if h.srv.cfg.ID == 0 {
						want = []uint64{proto.RootInode.Local}
					}
					if !slices.Equal(inodes, want) {
						t.Fatalf("server %d (pass %d) holds inodes %v, want %v", h.srv.cfg.ID, pass, inodes, want)
					}
					if c := h.srv.buildCheckpoint(); len(c.Marked) != 0 {
						t.Fatalf("server %d (pass %d) checkpoints marks %v", h.srv.cfg.ID, pass, c.Marked)
					}
					h.restart()
				}
			}
		})
	}
}

// TestRmdirAbortUnmarksAcrossCrash: an ABORT clears the logged mark, so a
// server that crashes after it recovers with the directory open for
// creates.
func TestRmdirAbortUnmarksAcrossCrash(t *testing.T) {
	h := durableServers(t, 1)[0]
	dir := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d",
		Mode: fsapi.Mode755, Ftype: fsapi.TypeDir}).Ino
	h.callOK(&proto.Request{Op: proto.OpRmdirLock, Target: dir})
	h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir, Target: dir})
	h.callOK(&proto.Request{Op: proto.OpRmdirAbort, Dir: dir, Target: dir})
	h.callOK(&proto.Request{Op: proto.OpRmdirUnlock, Target: dir})
	h.restart()
	h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: dir, Name: "x", Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
}

// TestUnlinkedOpenFileAcrossCrash pins what the holder of an open file that
// was unlinked sees once the file's server has crashed and recovered: the
// inode is gone — a checkpoint leaves out an inode with no links, and replay
// reaps one at its last link — so every request about it answers ENOENT, and
// its blocks are free: the next file that grows takes them. A holder that
// reads or writes those blocks directly, with the extents it got at open,
// is not told; it reads what their new owner wrote there (ROADMAP item 20).
func TestUnlinkedOpenFileAcrossCrash(t *testing.T) {
	h := durableServers(t, 1)[0]
	f := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "f",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true}).Ino
	held := h.callOK(&proto.Request{Op: proto.OpExtend, Target: f, Size: 512}).Extents
	if len(held) == 0 {
		t.Fatal("the extend handed out no blocks")
	}
	h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "f", Ftype: fsapi.TypeRegular})
	h.callOK(&proto.Request{Op: proto.OpUnlinkInode, Target: f})
	if resp := h.call(&proto.Request{Op: proto.OpStat, Target: f}); resp.Err != fsapi.OK {
		t.Fatalf("before the crash the held file stats %v, want OK", resp.Err)
	}

	h.restart()
	for _, req := range []*proto.Request{
		{Op: proto.OpStat, Target: f},
		{Op: proto.OpExtend, Target: f, Size: 1024},
		{Op: proto.OpCloseInode, Target: f},
	} {
		if resp := h.call(req); resp.Err != fsapi.ENOENT {
			t.Fatalf("after recovery %s of the held file answers %v, want ENOENT", req.Op, resp.Err)
		}
	}
	g := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "g",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular}).Ino
	got := h.callOK(&proto.Request{Op: proto.OpExtend, Target: g, Size: 512}).Extents
	if !slices.Equal(got, held) {
		t.Fatalf("the next file grew into %v, want the held file's %v", got, held)
	}
}
