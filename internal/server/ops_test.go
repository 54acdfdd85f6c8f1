package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

// TestOpTablesAgree: the rules that tie proto's op table (what an op is) to
// this server's (how it serves one). Code on both sides leans on each.
func TestOpTablesAgree(t *testing.T) {
	for op := proto.Op(0); op < proto.NumOps; op++ {
		info, r := op.Info(), ops[op]
		served := r.serve != nil || r.park != nil
		// dispatchBatch screens only shard ops for parking before it runs
		// anything: a batchable op that parked on anything but a shard's
		// rmdir mark or the epoch would park mid-batch.
		if info.Batchable && r.park != nil && info.Addr != proto.AddrShard {
			t.Errorf("%v is batchable and can park, but is not shard-addressed", op)
		}
		// Every op the batch pre-screen checks against a mark is one the
		// epoch gate stops.
		if dir, entry := info.Batchable && info.Addr == proto.AddrShard, info.Addr == proto.AddrShard; dir && !entry {
			t.Errorf("%v is pre-screened in a batch but passes the epoch gate", op)
		}
		// A duplicate is served in an envelope of its own or beside the
		// sub-ops of its batch, and must change nothing.
		if info.Idempotent && !(info.Batchable && info.ReadOnly) {
			t.Errorf("%v is idempotent but not batchable and read-only", op)
		}
		if r.serve != nil && r.park != nil {
			t.Errorf("%v has two handlers", op)
		}
		if served && r.station == nil {
			t.Errorf("%v is served but has no cost station", op)
		}
		if served && info.Name == "" {
			t.Errorf("op %d is served but has no name", uint16(op))
		}
		if info.Batchable && !served {
			t.Errorf("%v is batchable but not served", op)
		}
	}
}

// TestIdempotentOpsAreIdempotent: every op the table marks idempotent — the
// ones the chaos harness's network delivers twice — answers a second serving
// as it answered the first and leaves the server as the first left it: its
// checkpoint, its inodes' versions and descriptor counts, its shared
// descriptors and its entries' trackers. The server holds a file with blocks,
// a distributed directory's shard whose entries two clients track, and a
// shared descriptor.
func TestIdempotentOpsAreIdempotent(t *testing.T) {
	h := newHarness(t)
	ps := h.peers(2)
	file := h.create("f", fsapi.TypeRegular)
	h.callOK(&proto.Request{Op: proto.OpExtend, Target: file, Size: 3 * 4096})
	h.callOK(&proto.Request{Op: proto.OpWriteAt, Target: file, Offset: 100, Data: []byte("some bytes")})
	dir := h.callOK(&proto.Request{
		Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "d", Mode: fsapi.Mode755,
		Ftype: fsapi.TypeDir, Distributed: true,
	}).Ino
	for _, name := range []string{"a", "b", "c"} {
		h.callOK(&proto.Request{Op: proto.OpAddMap, Dir: dir, Name: name, Target: file, Ftype: fsapi.TypeRegular})
	}
	for _, p := range ps {
		h.callAs(p, &proto.Request{Op: proto.OpLookup, Dir: dir, Name: "a"})
	}
	h.callOK(&proto.Request{Op: proto.OpOpenInode, Target: file})
	fd := h.callOK(&proto.Request{Op: proto.OpFdShare, Target: file, Offset: 42}).Fd
	h.callOK(&proto.Request{Op: proto.OpFdIncRef, Fd: fd})

	samples := map[proto.Op]*proto.Request{
		proto.OpLookup:       {Op: proto.OpLookup, Dir: dir, Name: "b"},
		proto.OpReadDirShard: {Op: proto.OpReadDirShard, Dir: dir},
		proto.OpGetBlocks:    {Op: proto.OpGetBlocks, Target: file},
		proto.OpStat:         {Op: proto.OpStat, Target: file},
		proto.OpFdGetInfo:    {Op: proto.OpFdGetInfo, Fd: fd},
		proto.OpPing:         {Op: proto.OpPing},
	}
	for op := proto.Op(0); op < proto.NumOps; op++ {
		if !op.Info().Idempotent {
			continue
		}
		req, ok := samples[op]
		if !ok {
			t.Errorf("%v is marked idempotent and has no sample request here", op)
			continue
		}
		first := h.callAs(ps[0], req)
		if first.Err != fsapi.OK {
			t.Fatalf("%v: %v", op, first.Err)
		}
		before := serverState(h.srv)
		second := h.callAs(ps[0], req)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%v answered %+v, then %+v", op, first, second)
		}
		if after := serverState(h.srv); after != before {
			t.Errorf("%v served again changed the server:\nbefore %s\nafter  %s", op, before, after)
		}
	}
}

// serverState renders what a served request may change: the checkpoint, and
// what it leaves out — inode versions and descriptor counts, shared
// descriptors, and the entries' trackers.
func serverState(s *Server) string {
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint %x\n", s.buildCheckpoint().Marshal())
	s.inodes.Range(func(local uint64, ino *inode) bool {
		fmt.Fprintf(&b, "inode %d version %d fds %d\n", local, ino.version, ino.fdRefs)
		return true
	})
	s.sharedFds.Range(func(id proto.FdID, fd *sharedFd) bool {
		fmt.Fprintf(&b, "fd %d %+v\n", id, *fd)
		return true
	})
	s.dirs.Range(func(dir proto.InodeID, sh *dirShard) bool {
		sh.ents.Range(func(name string, ent dirEnt) bool {
			fmt.Fprintf(&b, "entry %v/%s trackers %v\n", dir, name, sh.trackers.list(ent.tracker))
			return true
		})
		return true
	})
	return b.String()
}
