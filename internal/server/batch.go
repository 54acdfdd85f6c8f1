package server

import (
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
)

// Batch dispatch (DESIGN.md §7).
//
// A batch is served as one unit of the server's single-threaded request
// loop: its sub-operations run back-to-back with no other request
// interleaved, so any invariant that holds between two requests also holds
// between two sub-operations. Each sub-operation stages its own write-ahead
// log records exactly as it would stand-alone; they all commit with the
// batch's single reply, so durability replay is indistinguishable from the
// unbatched execution order.
//
// Sub-operations must be ones that cannot park mid-batch: rmdir-protocol and
// pipe operations are rejected, and directory operations — which park only
// when their shard carries an rmdir mark — are pre-screened so that a batch
// touching a marked shard parks as a whole before any sub-operation has run.

// dirOp reports whether the op addresses a directory shard (and can
// therefore park on an rmdir mark).
func dirOp(op proto.Op) bool {
	switch op {
	case proto.OpLookup, proto.OpAddMap, proto.OpRmMap, proto.OpReadDirShard,
		proto.OpCreateCoalesced:
		return true
	default:
		return false
	}
}

// inodeOp reports whether the op works on the inode its Target names, and
// may therefore name it as proto.PrevInode.
func inodeOp(op proto.Op) bool {
	switch op {
	case proto.OpLinkInode, proto.OpUnlinkInode, proto.OpOpenInode, proto.OpCloseInode,
		proto.OpGetBlocks, proto.OpExtend, proto.OpSetSize, proto.OpTruncate,
		proto.OpStat, proto.OpReadAt, proto.OpWriteAt:
		return true
	default:
		return false
	}
}

// chainTarget replaces a sub-request's proto.PrevInode target with the inode
// the previous sub-response carries. A non-OK result answers the sub-request
// in its place: ECANCELED when there is no such inode (no predecessor, or one
// that failed or found none), EXDEV when another server stores it — nothing
// has run, and the client re-issues the sub-request there.
func (s *Server) chainTarget(sub *proto.Request, prev []*proto.Response) fsapi.Errno {
	ino, ok := proto.ChainTarget(prev)
	switch {
	case !ok:
		return fsapi.ECANCELED
	case ino.Server != int32(s.cfg.ID):
		return fsapi.EXDEV
	}
	sub.Target = ino
	return fsapi.OK
}

// dispatchBatch serves the decoded sub-requests of one batch envelope. The
// bool result is true when the whole batch was parked (a sub-request targets
// a shard marked by an in-flight rmdir); the batch is then re-dispatched
// from scratch once the mark resolves — safe because parking happens before
// any sub-operation has executed.
func (s *Server) dispatchBatch(subs []proto.Request, stopOnErr bool, batchReq *proto.Request, raw msg.Envelope) (*proto.Response, bool) {
	// Pre-screen for parking *before* executing anything: a re-dispatch
	// must be able to start over without replaying side effects.
	for i := range subs {
		sub := &subs[i]
		if !proto.Batchable(sub.Op) {
			continue // answered per-sub below, never dispatched
		}
		if dirOp(sub.Op) {
			if sh, ok := s.dirs.Get(sub.Dir); ok && sh.marked {
				s.park(sh, batchReq, raw)
				return nil, true
			}
		}
		// A frozen server parks whole batches that carry a sub-operation
		// the epoch gate would park (a mutation at the current epoch, or
		// anything already stamped with the pending epoch): parking
		// mid-batch is impossible, and the batch must re-dispatch from
		// scratch after the migration commits.
		if s.frozen && sub.Epoch != 0 && entryOp(sub.Op) {
			cur := s.epoch.Load()
			if !(sub.Epoch == cur && entryReadOnly(sub.Op)) &&
				(sub.Epoch == cur || sub.Epoch == s.pendingEpoch) {
				s.migParked = append(s.migParked, parkedReq{req: batchReq, env: raw})
				return nil, true
			}
		}
	}

	for len(s.subResps) < len(subs) {
		s.subResps = append(s.subResps, new(proto.Response))
	}
	resps := s.subResps[:len(subs)]
	failed := false
	for i := range subs {
		sub := &subs[i]
		errno := fsapi.OK
		switch {
		case !proto.Batchable(sub.Op):
			errno = fsapi.ENOSYS
		case failed && stopOnErr:
			errno = fsapi.ECANCELED
		case sub.Target == proto.PrevInode && inodeOp(sub.Op):
			errno = s.chainTarget(sub, resps[:i])
		}
		if errno != fsapi.OK {
			*resps[i] = proto.Response{Err: errno}
		} else if resp, parked := s.dispatch(sub, raw); parked || resp == nil {
			// Unreachable given the pre-screen, but a parked or missing
			// sub-response fails the sub-op rather than leave the client
			// waiting on a reply that cannot be routed through the batch
			// envelope.
			*resps[i] = proto.Response{Err: fsapi.EIO}
		} else {
			// Handlers answer in the shared scratch response and extent
			// list; a batch holds several responses at once, each in its
			// own struct with its own extents.
			exts := append(resps[i].Extents[:0], resp.Extents...)
			*resps[i] = *resp
			resps[i].Extents = exts
		}
		// A close is not a chain member: nothing behind it needs what it did,
		// so one that fails stops nothing (DESIGN.md §7, "A clean close rides").
		if resps[i].Err != fsapi.OK && sub.Op != proto.OpCloseInode {
			failed = true
		}
	}

	s.statsMu.Lock()
	s.stats.BatchedOps += uint64(len(subs))
	for i := range subs {
		s.stats.Ops[subs[i].Op]++
	}
	s.statsMu.Unlock()

	// replyAt encodes the sub-responses in place in the reply's buffer.
	return s.resp(proto.Response{Subs: resps}), false
}
