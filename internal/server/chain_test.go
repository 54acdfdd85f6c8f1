package server

import (
	"testing"

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
	req.ClientID = 7
	fut, err := h.net.SendAsync(h.ep, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	return fut
}

// sendBatch sends a stop-on-error batch without waiting for its reply.
func (h *harness) sendBatch(reqs ...*proto.Request) *msg.Future {
	h.t.Helper()
	for _, r := range reqs {
		r.ClientID = 7
	}
	return h.send(&proto.Request{Op: proto.OpBatch, Subs: reqs, StopOnErr: true})
}

// awaitBatch harvests the reply of a batch sent with sendBatch.
func (h *harness) awaitBatch(fut *msg.Future) []*proto.Response {
	h.t.Helper()
	renv, err := fut.Await()
	if err != nil {
		h.t.Fatal(err)
	}
	outer, err := proto.UnmarshalResponse(renv.Payload)
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
		link := h.send(&proto.Request{Op: proto.OpAddMap, Dir: dir, Name: "f", Target: file, Ftype: fsapi.TypeRegular})
		fut := h.sendBatch(&proto.Request{Op: proto.OpLookup, Dir: dir, Name: "f"}, onPrev(proto.OpOpenInode))
		if _, ok := fut.TryAwait(); ok {
			t.Fatal("chain answered while the shard was marked")
		}
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
		// The unlink chain parks, and after the commit finds its epoch stale:
		// nothing is removed, nothing unlinked.
		fut := h.sendBatch(
			&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: "f", Ftype: fsapi.TypeRegular, Epoch: 1},
			onPrev(proto.OpUnlinkInode))
		if _, ok := fut.TryAwait(); ok {
			t.Fatal("mutating chain answered by a frozen server")
		}
		commit := &proto.ShardMsg{MapBlob: place.New(place.PolicyModulo, []int32{0}, 2).Encode()}
		h.callOK(&proto.Request{Op: proto.OpShardCommit, Data: commit.Marshal()})
		if got := errnos(h.awaitBatch(fut)); got[0] != fsapi.EEPOCH || got[1] != fsapi.ECANCELED {
			t.Fatalf("chain after the commit: %v, want EEPOCH then ECANCELED", got)
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
	var held []ncc.BlockID
	for part.FreeCount() > 0 {
		b, err := part.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
	}
	resps = create("g")
	if resps[0].Err != fsapi.OK || resps[1].Err != fsapi.ENOSPC {
		t.Fatalf("chain on a full partition: %v, %v; want OK, ENOSPC", resps[0].Err, resps[1].Err)
	}
	if found := h.call(lookup("g")); found.Err != fsapi.OK || found.Ino != resps[0].Ino {
		t.Fatalf("entry after ENOSPC on the EXTEND: %v (%v)", found.Err, found.Ino)
	}
	part.Free(held)
	if ext := h.callOK(&proto.Request{Op: proto.OpExtend, Target: resps[0].Ino, Size: 1}); len(ext.Extents) != 1 {
		t.Fatalf("EXTEND once there is room: extents %v", ext.Extents)
	}
}
