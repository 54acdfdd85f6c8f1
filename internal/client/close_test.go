package client

// A clean close rides (DESIGN.md §7): what the client does with the one close
// it keeps back, driven against route_test.go's scripted fake servers so that
// the answers a real server gives only under duress — a close that fails, an
// envelope refused whole — are reachable.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

// closeHarness answers every sub-request by its operation: closeErr for a
// CLOSE_INODE, a canned success for the rest. refuse makes the next envelope
// fail whole.
type closeHarness struct {
	*renameHarness
	closeErr fsapi.Errno
	refuse   bool
}

func newCloseHarness(t *testing.T) *closeHarness {
	h := &closeHarness{}
	answer := func(srv int, req *proto.Request) *proto.Response {
		made := proto.InodeID{Server: int32(srv), Local: 42}
		switch req.Op {
		case proto.OpCloseInode:
			return &proto.Response{Err: h.closeErr, Version: 3}
		case proto.OpLookup, proto.OpCreateCoalesced, proto.OpOpenInode:
			return &proto.Response{Ino: made, Ftype: fsapi.TypeRegular, Version: 1}
		case proto.OpExtend:
			return &proto.Response{Extents: []proto.Extent{{Start: 5, Count: 1}}, Version: 2}
		case proto.OpStat:
			return &proto.Response{Stat: proto.StatWire{Ino: made, Size: 7}}
		}
		return &proto.Response{}
	}
	h.renameHarness = newRenameHarness(t, func(_ *renameHarness, srv int, req *proto.Request) *proto.Response {
		if req.Op != proto.OpBatch {
			return answer(srv, req)
		}
		if h.refuse {
			h.refuse = false
			return proto.ErrResponse(fsapi.EINVAL)
		}
		subs, _, _ := proto.UnmarshalBatch(req.Data)
		resps := make([]*proto.Response, len(subs))
		for i, sub := range subs {
			resps[i] = answer(srv, sub)
		}
		return batchReply(resps...)
	})
	return h
}

// pend leaves a clean close of a file on srv waiting, as Close does.
func (h *closeHarness) pend(srv int) {
	of := h.cli.newOpenFile()
	of.ino, of.ftype, of.verKnown = proto.InodeID{Server: int32(srv), Local: 77}, fsapi.TypeRegular, 3
	h.cli.pend = of
	h.log = nil
}

func TestFailedCloseInFrontRunsTheChainOnce(t *testing.T) {
	h := newCloseHarness(t)
	h.closeErr = fsapi.ESTALE
	srv, _ := h.cli.routeEntry(testDir, true, "name")

	// In front of [LOOKUP, STAT]: the stat answers, in the one message.
	h.pend(srv)
	if st, err := h.cli.Stat("/d/name"); err != nil || st.Size != 7 {
		t.Fatalf("stat behind a close that failed: %+v, %v", st, err)
	}
	h.wantLog(t, fmt.Sprintf("%d:BATCH[CLOSE@0,LOOKUP@1,STAT@0]", srv))
	if h.cli.pend != nil {
		t.Fatal("a close the server answered is still pending")
	}

	// In front of [CREATE_COALESCED, EXTEND]: one create, its block in hand.
	h.cli.writesCreates = true
	created, _ := h.cli.routeEntry(testDir, true, "new")
	h.pend(created)
	fd, err := h.cli.Open("/d/new", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	h.wantLog(t, fmt.Sprintf("%d:BATCH[CLOSE@0,CREATE_COALESCED@1,EXTEND@0]", created))
	if of := h.cli.fds[fd]; !of.firstBlock || of.blocks.Len() != 1 || h.cli.Stats().FirstBlocks != 1 {
		t.Fatalf("the create behind a failed close: first block %v, %d blocks", of.firstBlock, of.blocks.Len())
	}
}

func TestRefusedEnvelopeLeavesTheClosePending(t *testing.T) {
	h := newCloseHarness(t)
	srv, _ := h.cli.routeEntry(testDir, true, "name")
	h.pend(srv)
	h.refuse = true
	if _, err := h.cli.Stat("/d/name"); !fsapi.IsErrno(err, fsapi.EINVAL) {
		t.Fatalf("stat in a refused envelope returned %v, want EINVAL", err)
	}
	if h.cli.pend == nil {
		t.Fatal("nothing of the envelope ran, and the close is no longer pending")
	}
	// The next message takes it along again.
	if _, err := h.cli.Stat("/d/name"); err != nil {
		t.Fatal(err)
	}
	chain := fmt.Sprintf("%d:BATCH[CLOSE@0,LOOKUP@1,STAT@0]", srv)
	h.wantLog(t, chain, chain)
	if h.cli.pend != nil {
		t.Fatal("the close is pending after it was answered")
	}
}

func TestCloseGoesAloneBeforeAnotherDestination(t *testing.T) {
	h := newCloseHarness(t)
	srv, _ := h.cli.routeEntry(testDir, true, "name")
	bare := fmt.Sprintf("%d:CLOSE@0", 1-srv)
	for _, tc := range []struct {
		name string
		call func() error
		want []string
	}{
		{"another server", func() error { _, err := h.cli.Stat("/d/name"); return err },
			[]string{bare, fmt.Sprintf("%d:BATCH[LOOKUP@1,STAT@0]", srv)}},
		{"a broadcast", func() error { _, err := h.cli.ReadDir("/d"); return err },
			[]string{bare, "0:READDIR@1", "1:READDIR@1"}},
		{"an operation that shares no envelope", func() error {
			_, err := h.cli.rpc(1-srv, &proto.Request{Op: proto.OpPipeCreate})
			return err
		}, []string{bare, fmt.Sprintf("%d:PIPE_CREATE@0", 1-srv)}},
		{"an asynchronous send", func() error {
			var fl flight
			err := h.cli.post(&fl, 1-srv, &proto.Request{Op: proto.OpPing})
			if err == nil {
				_, err = fl.fut.Await()
			}
			return err
		}, []string{bare, fmt.Sprintf("%d:PING@0", 1-srv)}},
		{"process exit", func() error { h.cli.CloseAll(); return nil }, []string{bare}},
		{"sync", h.cli.Sync, []string{bare}},
		{"a second clean close", func() error {
			of := h.cli.newOpenFile()
			of.ino, of.localRefs = proto.InodeID{Server: int32(1 - srv), Local: 78}, 1
			h.cli.fds[9] = of
			return h.cli.Close(9)
		}, []string{bare}},
	} {
		h.pend(1 - srv)
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "a broadcast" {
			h.mu.Lock()
			sort.Strings(h.log[1:])
			h.mu.Unlock()
		}
		h.wantLog(t, tc.want...)
		if tc.name == "a second clean close" {
			if h.cli.pend == nil || h.cli.pend.ino.Local != 78 {
				t.Fatalf("after a second clean close %+v is pending, want the second", h.cli.pend)
			}
		} else if h.cli.pend != nil {
			t.Fatalf("%s: the close is still pending", tc.name)
		}
	}
}

// TestChildrenInheritNoPendingClose: the description whose close waits is the
// parent's alone; fork shares open descriptors, not one already closed.
func TestChildrenInheritNoPendingClose(t *testing.T) {
	h := newCloseHarness(t)
	h.pend(0)
	forked, err := h.cli.CloneForFork(1)
	if err != nil {
		t.Fatal(err)
	}
	if child := forked.(*Client); child.pend != nil || h.cli.NewPeer(1).pend != nil {
		t.Fatal("a child process holds its parent's pending close")
	}
	h.wantLog(t) // nothing was open: fork sent nothing, and the close still waits
	if h.cli.pend == nil {
		t.Fatal("fork dropped the parent's pending close")
	}
}
