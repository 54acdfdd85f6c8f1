package server

import (
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
)

// sendAs sends a request as p without waiting for its reply.
func (h *harness) sendAs(p peer, req *proto.Request) *msg.Future {
	h.t.Helper()
	fut, err := h.net.SendAsync(p.ep, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	return fut
}

// answer waits for the reply to a request sent with send or sendAs, and
// fails the test if none comes within ten seconds.
func (h *harness) answer(fut *msg.Future) *proto.Response {
	h.t.Helper()
	got := make(chan *proto.Response, 1)
	go func() {
		env, err := fut.Await()
		if err != nil {
			got <- &proto.Response{Err: fsapi.EIO}
			return
		}
		resp := &proto.Response{}
		err = proto.UnmarshalResponseInto(resp, env.Payload)
		if err != nil {
			resp = &proto.Response{Err: fsapi.EIO}
		}
		got <- resp
	}()
	select {
	case resp := <-got:
		return resp
	case <-time.After(10 * time.Second):
		h.t.Fatal("a parked request was never answered")
		return nil
	}
}

// TestRmdirLockQueue: the home server grants a directory's rmdir lock in the
// order the LOCKs arrived. An UNLOCK hands it to the first waiter alone, with
// the directory's distribution, and the next waiter keeps waiting; a FINISH
// answers every waiter left ENOENT, the directory being gone.
func TestRmdirLockQueue(t *testing.T) {
	h := newHarness(t)
	ps := h.peers(3)
	dir := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d",
		Mode: fsapi.Mode755, Ftype: fsapi.TypeDir, Distributed: true}).Ino
	if resp := h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirLock, Target: dir}); resp.Err != fsapi.OK || !resp.Dist {
		t.Fatalf("the first LOCK answered %v, dist %v; want OK and a distributed directory", resp.Err, resp.Dist)
	}
	before := h.parked()
	second := h.sendAs(ps[1], &proto.Request{Op: proto.OpRmdirLock, Target: dir})
	h.awaitParked(before, 1)
	third := h.sendAs(ps[2], &proto.Request{Op: proto.OpRmdirLock, Target: dir})
	h.awaitParked(before, 2)

	if resp := h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirUnlock, Target: dir}); resp.Err != fsapi.OK {
		t.Fatalf("UNLOCK: %v", resp.Err)
	}
	if resp := h.answer(second); resp.Err != fsapi.OK || !resp.Dist {
		t.Fatalf("the second LOCK answered %v, dist %v; want the lock", resp.Err, resp.Dist)
	}
	ino, _ := h.srv.inodes.Get(dir.Local)
	if q := ino.rare.rmdirQueue; len(q) != 1 || q[0].env.Src != ps[2].ep.ID {
		t.Fatalf("after the UNLOCK %d LOCKs wait, want the third client's alone", len(q))
	}

	if resp := h.callAs(ps[1], &proto.Request{Op: proto.OpRmdirFinish, Target: dir}); resp.Err != fsapi.OK {
		t.Fatalf("FINISH: %v", resp.Err)
	}
	if resp := h.answer(third); resp.Err != fsapi.ENOENT {
		t.Fatalf("the third LOCK answered %v after the FINISH, want ENOENT", resp.Err)
	}
}

// TestParkedCreateOutlivesCrash: a create parked on a marked shard when its
// server crashes is served again once the server recovers. The mark is
// logged, so the create parks again, and the COMMIT answers it ENOENT, as it
// would have without the crash. Before parked requests outlived a crash the
// create was never answered.
func TestParkedCreateOutlivesCrash(t *testing.T) {
	h := durableServers(t, 1)[0]
	ps := h.peers(1)
	dir := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d",
		Mode: fsapi.Mode755, Ftype: fsapi.TypeDir}).Ino
	h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirLock, Target: dir})
	h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirPrepare, Dir: dir, Target: dir})
	before := h.parked()
	create := h.send(&proto.Request{Op: proto.OpCreateCoalesced, Dir: dir, Name: "x",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
	h.awaitParked(before, 1)

	h.restart()
	if sh, ok := h.srv.dirs.Get(dir); !ok || len(sh.parked) != 1 {
		t.Fatal("after the recovery the create does not wait on the directory's mark")
	}
	if resp := h.callAs(ps[0], &proto.Request{Op: proto.OpRmdirCommit, Dir: dir, Target: dir}); resp.Err != fsapi.OK {
		t.Fatalf("RMDIR_COMMIT: %v", resp.Err)
	}
	if resp := h.answer(create); resp.Err != fsapi.ENOENT {
		t.Fatalf("the parked create answered %v, want ENOENT", resp.Err)
	}
}

// TestBlockedPipeReadOutlivesCrash: a read blocked on an empty pipe when the
// pipe's server crashes gets an answer once the server recovers. Pipes are
// volatile — recovery keeps only its inode number reserved — so the read
// fails with ENOENT instead of waiting forever.
func TestBlockedPipeReadOutlivesCrash(t *testing.T) {
	h := durableServers(t, 1)[0]
	pipe := h.callOK(&proto.Request{Op: proto.OpPipeCreate}).Ino
	before := h.parked()
	read := h.send(&proto.Request{Op: proto.OpPipeRead, Target: pipe, Count: 8})
	h.awaitParked(before, 1)

	h.restart()
	if resp := h.answer(read); resp.Err != fsapi.ENOENT {
		t.Fatalf("the blocked read answered %v, want ENOENT", resp.Err)
	}
}
