package server

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
)

// create makes a regular file (or a directory) in the root and returns its
// inode.
func (h *harness) create(name string, ftype fsapi.FileType) proto.InodeID {
	h.t.Helper()
	return h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name, Mode: fsapi.Mode755, Ftype: ftype,
	}).Ino
}

func lookup(name string) *proto.Request {
	return &proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: name}
}

func onPrev(op proto.Op) *proto.Request {
	return &proto.Request{Op: op, Target: proto.PrevInode}
}

// send sends a request without waiting for its reply.
func (h *harness) send(req *proto.Request) *msg.Future {
	h.t.Helper()
	fut, err := h.net.SendAsync(h.ep, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	return fut
}

// parked returns how many requests the server has parked so far.
func (h *harness) parked() uint64 { return h.srv.Stats().Parked }

// awaitParked waits until the server has parked n requests more than before —
// it serves what was just sent on a goroutine of its own — and fails the test
// if it does not get there.
func (h *harness) awaitParked(before, n uint64) {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); h.parked() < before+n; runtime.Gosched() {
		if time.Now().After(deadline) {
			h.t.Fatalf("the server parked %d requests, want %d", h.parked()-before, n)
		}
	}
}

// sendBatch sends a stop-on-error batch without waiting for its reply.
func (h *harness) sendBatch(reqs ...*proto.Request) *msg.Future {
	h.t.Helper()
	return h.send(&proto.Request{Op: proto.OpBatch, Subs: reqs, StopOnErr: true})
}

// awaitBatch harvests the reply of a batch sent with sendBatch.
func (h *harness) awaitBatch(fut *msg.Future) []*proto.Response {
	h.t.Helper()
	renv, err := fut.Await()
	if err != nil {
		h.t.Fatal(err)
	}
	outer := &proto.Response{}
	err = proto.UnmarshalResponseInto(outer, renv.Payload)
	if err != nil {
		h.t.Fatal(err)
	}
	resps, err := proto.UnmarshalBatchResponses(outer.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	return resps
}

func errnos(resps []*proto.Response) []fsapi.Errno {
	out := make([]fsapi.Errno, len(resps))
	for i, r := range resps {
		out[i] = r.Err
	}
	return out
}

// TestBatchChainTarget: what dispatchBatch makes of a sub-request whose
// Target is proto.PrevInode, answer by answer.
func TestBatchChainTarget(t *testing.T) {
	h := newHarness(t)
	file := h.create("file", fsapi.TypeRegular)
	dir := h.create("dir", fsapi.TypeDir)
	// An entry whose inode another server stores, under the local number of
	// an inode this one does store: EXDEV must go by the whole id.
	foreign := proto.InodeID{Server: 3, Local: file.Local}
	h.callOK(&proto.Request{Op: proto.OpAddMap, Dir: proto.RootInode, Name: "elsewhere", Target: foreign, Ftype: fsapi.TypeRegular})

	cases := []struct {
		name string
		stop bool
		subs []*proto.Request
		want []fsapi.Errno
	}{
		{"lookup then stat", true, []*proto.Request{lookup("file"), onPrev(proto.OpStat)},
			[]fsapi.Errno{fsapi.OK, fsapi.OK}},
		{"previous failed", true, []*proto.Request{lookup("missing"), onPrev(proto.OpStat)},
			[]fsapi.Errno{fsapi.ENOENT, fsapi.ECANCELED}},
		{"previous failed, independent sub-ops", false, []*proto.Request{lookup("missing"), onPrev(proto.OpStat), lookup("file")},
			[]fsapi.Errno{fsapi.ENOENT, fsapi.ECANCELED, fsapi.OK}},
		{"no previous sub-op", true, []*proto.Request{onPrev(proto.OpStat)},
			[]fsapi.Errno{fsapi.ECANCELED}},
		{"previous carries no inode", true, []*proto.Request{{Op: proto.OpPing}, onPrev(proto.OpStat)},
			[]fsapi.Errno{fsapi.OK, fsapi.ECANCELED}},
		{"inode elsewhere", true, []*proto.Request{lookup("elsewhere"), onPrev(proto.OpUnlinkInode)},
			[]fsapi.Errno{fsapi.OK, fsapi.EXDEV}},
		{"op without a target", true, []*proto.Request{lookup("file"), {Op: proto.OpLookup, Dir: proto.RootInode, Name: "file", Target: proto.PrevInode}},
			[]fsapi.Errno{fsapi.OK, fsapi.EINVAL}},
		{"target that is not the op's own inode", true, []*proto.Request{lookup("file"), {Op: proto.OpAddMap, Dir: proto.RootInode, Name: "alias", Target: proto.PrevInode, Ftype: fsapi.TypeRegular}},
			[]fsapi.Errno{fsapi.OK, fsapi.EINVAL}},
		{"directory opened for writing", true, []*proto.Request{lookup("dir"), {Op: proto.OpOpenInode, Target: proto.PrevInode, Flags: fsapi.OWrOnly}},
			[]fsapi.Errno{fsapi.OK, fsapi.EISDIR}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := errnos(h.callBatch(tc.stop, tc.subs...))
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("sub-responses %v, want %v", got, tc.want)
				}
			}
		})
	}

	// None of the refusals above ran anything: the file kept its link, no
	// alias appeared, and the directory has no open reference.
	if st := h.callOK(&proto.Request{Op: proto.OpStat, Target: file}); st.Stat.Nlink != 1 {
		t.Fatalf("file has %d links after a chain that answered EXDEV, want 1", st.Stat.Nlink)
	}
	if resp := h.call(lookup("alias")); resp.Err != fsapi.ENOENT {
		t.Fatalf("ADD_MAP of the chain target: lookup answers %v, want ENOENT", resp.Err)
	}
	if ino, _ := h.srv.inodes.Get(dir.Local); ino.fdRefs != 0 {
		t.Fatalf("directory holds %d open references after EISDIR, want 0", ino.fdRefs)
	}

	// Outside a batch the sentinel names nothing.
	for _, op := range []proto.Op{proto.OpStat, proto.OpUnlinkInode, proto.OpRmMap, proto.OpFdShare} {
		if resp := h.call(&proto.Request{Op: op, Dir: proto.RootInode, Name: "file", Target: proto.PrevInode}); resp.Err != fsapi.EINVAL {
			t.Fatalf("bare %s on the chain target: %v, want EINVAL", op, resp.Err)
		}
	}

	// The unlink chain: RM_MAP hands the inode it found on.
	resps := h.callBatch(true,
		&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "file", Ftype: fsapi.TypeRegular},
		onPrev(proto.OpUnlinkInode))
	if resps[0].Err != fsapi.OK || resps[0].Ino != file || resps[1].Err != fsapi.OK || resps[1].N != 0 {
		t.Fatalf("unlink chain: %+v / %+v", resps[0], resps[1])
	}
	if resp := h.call(&proto.Request{Op: proto.OpStat, Target: file}); resp.Err != fsapi.ENOENT {
		t.Fatalf("stat of the unlinked inode: %v, want ENOENT", resp.Err)
	}
}

// TestBatchChainParksWhole: a chain parks before either half has run — on an
// rmdir mark and on a frozen server's epoch gate — and runs exactly once when
// it is re-dispatched.
func TestBatchChainParksWhole(t *testing.T) {
	t.Run("marked shard", func(t *testing.T) {
		h := newHarness(t)
		dir := h.create("d", fsapi.TypeDir)
		file := h.create("f", fsapi.TypeRegular)
		h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir, Target: dir})

		// A link to the file parks on the mark, and the chain that opens the
		// file through it parks behind it.
		before := h.parked()
		link := h.send(&proto.Request{Op: proto.OpAddMap, Dir: dir, Name: "f", Target: file, Ftype: fsapi.TypeRegular})
		fut := h.sendBatch(&proto.Request{Op: proto.OpLookup, Dir: dir, Name: "f"}, onPrev(proto.OpOpenInode))
		h.awaitParked(before, 2) // the link and the chain
		h.callOK(&proto.Request{Op: proto.OpRmdirAbort, Dir: dir, Target: dir})
		if _, err := link.Await(); err != nil {
			t.Fatal(err)
		}
		resps := h.awaitBatch(fut)
		if got := errnos(resps); got[0] != fsapi.OK || got[1] != fsapi.OK || resps[1].Ino != file {
			t.Fatalf("chain after the abort: %v, opened %v, want OK, OK and %v", got, resps[1].Ino, file)
		}
		if ino, _ := h.srv.inodes.Get(file.Local); ino.fdRefs != 1 {
			t.Fatalf("file holds %d open references after one open, want 1", ino.fdRefs)
		}

		// The same chain led by a client's clean close (DESIGN.md §7, "A clean
		// close rides"): the close has not run when the envelope parks, and
		// runs once when it is served. Three references, so that a second run
		// would show.
		h.callOK(&proto.Request{Op: proto.OpOpenInode, Target: file})
		h.callOK(&proto.Request{Op: proto.OpOpenInode, Target: file})
		empty := h.create("e", fsapi.TypeDir)
		h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: empty, Target: empty})
		before = h.parked()
		fut = h.sendBatch(&proto.Request{Op: proto.OpCloseInode, Target: file},
			&proto.Request{Op: proto.OpLookup, Dir: empty, Name: "f"}, onPrev(proto.OpStat))
		h.awaitParked(before, 1)
		ino, _ := h.srv.inodes.Get(file.Local)
		if h.callOK(&proto.Request{Op: proto.OpPing}); ino.fdRefs != 3 {
			t.Fatalf("%d open references while the envelope is parked, want 3", ino.fdRefs)
		}
		h.callOK(&proto.Request{Op: proto.OpRmdirAbort, Dir: empty, Target: empty})
		if got := errnos(h.awaitBatch(fut)); got[0] != fsapi.OK || got[1] != fsapi.ENOENT || got[2] != fsapi.ECANCELED || ino.fdRefs != 2 {
			t.Fatalf("[CLOSE, LOOKUP, STAT] after the abort: %v, %d open references; want OK, ENOENT, ECANCELED and 2", got, ino.fdRefs)
		}
	})

	t.Run("frozen server", func(t *testing.T) {
		h := turnaroundHarness(t)
		file := h.create("f", fsapi.TypeRegular)
		h.callOK(&proto.Request{Op: proto.OpShardFreeze, Epoch: 2})

		// A read-only chain at the current epoch is served while frozen.
		look := lookup("f")
		look.Epoch = 1
		if got := errnos(h.callBatch(true, look, onPrev(proto.OpStat))); got[0] != fsapi.OK || got[1] != fsapi.OK {
			t.Fatalf("read-only chain on a frozen server: %v", got)
		}
		// The unlink chain parks, the clean close that leads it too, and after
		// the commit the chain finds its epoch stale: nothing is removed,
		// nothing unlinked, and the close has run once.
		h.callOK(&proto.Request{Op: proto.OpOpenInode, Target: file})
		h.callOK(&proto.Request{Op: proto.OpOpenInode, Target: file})
		before := h.parked()
		fut := h.sendBatch(
			&proto.Request{Op: proto.OpCloseInode, Target: file},
			&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "f", Ftype: fsapi.TypeRegular, Epoch: 1},
			onPrev(proto.OpUnlinkInode))
		h.awaitParked(before, 1)
		ino, _ := h.srv.inodes.Get(file.Local)
		if h.callOK(&proto.Request{Op: proto.OpPing}); ino.fdRefs != 2 {
			t.Fatalf("%d open references while the envelope is parked, want 2", ino.fdRefs)
		}
		commit := &proto.ShardMsg{MapBlob: place.New(place.PolicyModulo, []int32{0}, 2).Encode()}
		h.callOK(&proto.Request{Op: proto.OpShardCommit, Data: commit.Marshal()})
		if got := errnos(h.awaitBatch(fut)); got[0] != fsapi.OK || got[1] != fsapi.EEPOCH || got[2] != fsapi.ECANCELED || ino.fdRefs != 1 {
			t.Fatalf("chain after the commit: %v, %d open references; want OK, EEPOCH, ECANCELED and 1", got, ino.fdRefs)
		}
		if st := h.callOK(&proto.Request{Op: proto.OpStat, Target: file}); st.Stat.Nlink != 1 {
			t.Fatalf("file has %d links, want 1", st.Stat.Nlink)
		}
		look.Epoch = 2
		if resp := h.call(look); resp.Ino != file {
			t.Fatalf("entry after the refused chain: %v (%v)", resp.Ino, resp.Err)
		}
	})
}

// TestFailedCloseStopsNoChain: a CLOSE_INODE is not a member of the chain it
// leads — a client's clean close rides in front of whatever that client sends
// next (DESIGN.md §7, "A clean close rides") — so one that fails neither
// cancels the chain nor makes anyone run it again.
func TestFailedCloseStopsNoChain(t *testing.T) {
	h := newHarness(t)
	file := h.create("f", fsapi.TypeRegular)
	gone := &proto.Request{Op: proto.OpCloseInode, Target: proto.InodeID{Server: 0, Local: 1 << 40}}

	resps := h.callBatch(true, gone, lookup("f"), onPrev(proto.OpStat))
	if got := errnos(resps); got[0] != fsapi.ENOENT || got[1] != fsapi.OK || got[2] != fsapi.OK || resps[2].Stat.Ino != file {
		t.Fatalf("[CLOSE of no inode, LOOKUP, STAT]: %v, stat of %v; want ENOENT, OK, OK of %v", got, resps[2].Stat.Ino, file)
	}
	free := h.srv.cfg.Partition.FreeCount()
	resps = h.callBatch(true, gone,
		&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "g", Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true},
		&proto.Request{Op: proto.OpExtend, Target: proto.PrevInode, Size: 1})
	if got := errnos(resps); got[0] != fsapi.ENOENT || got[1] != fsapi.OK || got[2] != fsapi.OK || len(resps[2].Extents) != 1 {
		t.Fatalf("[CLOSE of no inode, CREATE_COALESCED, EXTEND]: %v, extents %v; want ENOENT, OK, OK and one block", got, resps[2].Extents)
	}
	if got := h.srv.cfg.Partition.FreeCount(); got != free-1 {
		t.Fatalf("free blocks %d after the create chain, want %d: it ran once", got, free-1)
	}
	// Any other member's failure still stops what follows it.
	if got := errnos(h.callBatch(true, gone, lookup("missing"), onPrev(proto.OpStat))); got[1] != fsapi.ENOENT || got[2] != fsapi.ECANCELED {
		t.Fatalf("[CLOSE, LOOKUP of no name, STAT]: %v, want the STAT cancelled", got)
	}
}

// TestCreateChainCarriesFirstBlock: a create followed by EXTEND(PrevInode) in
// one stop-on-error batch — what a client that writes what it creates sends
// (DESIGN.md §7, "First block with the create") — answer by answer.
func TestCreateChainCarriesFirstBlock(t *testing.T) {
	h := newHarness(t)
	part := h.srv.cfg.Partition
	create := func(name string) []*proto.Response {
		return h.callBatch(true,
			&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name, Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, WantOpen: true},
			&proto.Request{Op: proto.OpExtend, Target: proto.PrevInode, Size: 1})
	}

	// Inode and extents in one reply; the block is the file's, its size 0.
	free := part.FreeCount()
	resps := create("f")
	made, ext := resps[0], resps[1]
	if made.Err != fsapi.OK || ext.Err != fsapi.OK || made.Ino.Local == 0 {
		t.Fatalf("create chain: %v (%v), %v", made.Err, made.Ino, ext.Err)
	}
	if len(ext.Extents) != 1 || ext.Extents[0].Count != 1 || ext.Version != made.Version+1 {
		t.Fatalf("EXTEND behind the create: extents %v, version %d after %d", ext.Extents, ext.Version, made.Version)
	}
	if got := part.FreeCount(); got != free-1 {
		t.Fatalf("free blocks %d after the chain, want %d", got, free-1)
	}
	if st := h.callOK(&proto.Request{Op: proto.OpStat, Target: made.Ino}); st.Stat.Size != 0 {
		t.Fatalf("size %d with a block nothing has been written to, want 0", st.Stat.Size)
	}

	// The name exists (a second delivery of the same chain is this too): the
	// create answers EEXIST with the entry, the EXTEND is cancelled, and
	// nothing was allocated.
	resps = create("f")
	if resps[0].Err != fsapi.EEXIST || resps[0].Ino != made.Ino || resps[1].Err != fsapi.ECANCELED {
		t.Fatalf("chain on an existing name: %v (%v), %v; want EEXIST (%v), ECANCELED", resps[0].Err, resps[0].Ino, resps[1].Err, made.Ino)
	}
	if got := part.FreeCount(); got != free-1 {
		t.Fatalf("free blocks %d after EEXIST, want %d", got, free-1)
	}

	// Closed unwritten, the block stays with the inode; unlink frees it.
	h.callOK(&proto.Request{Op: proto.OpCloseInode, Target: made.Ino})
	if got := part.FreeCount(); got != free-1 {
		t.Fatalf("free blocks %d after the unwritten close, want %d", got, free-1)
	}
	if got := errnos(h.callBatch(true,
		&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "f", Ftype: fsapi.TypeRegular},
		onPrev(proto.OpUnlinkInode))); got[0] != fsapi.OK || got[1] != fsapi.OK {
		t.Fatalf("[RM_MAP, UNLINK_INODE]: %v", got)
	}
	if got := part.FreeCount(); got != free {
		t.Fatalf("free blocks %d once the file is unlinked, want %d", got, free)
	}

	// No free block: the create stands, the EXTEND answers ENOSPC.
	var held ncc.BlockMap
	for part.FreeCount() > 0 {
		b, err := part.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		held.Append(b)
	}
	resps = create("g")
	if resps[0].Err != fsapi.OK || resps[1].Err != fsapi.ENOSPC {
		t.Fatalf("chain on a full partition: %v, %v; want OK, ENOSPC", resps[0].Err, resps[1].Err)
	}
	if found := h.call(lookup("g")); found.Err != fsapi.OK || found.Ino != resps[0].Ino {
		t.Fatalf("entry after ENOSPC on the EXTEND: %v (%v)", found.Err, found.Ino)
	}
	part.Free(&held)
	if ext := h.callOK(&proto.Request{Op: proto.OpExtend, Target: resps[0].Ino, Size: 1}); len(ext.Extents) != 1 {
		t.Fatalf("EXTEND once there is room: extents %v", ext.Extents)
	}
}
