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
		info := sub.Op.Info()
		if !info.Batchable {
			continue // answered per-sub below, never dispatched
		}
		// The whole batch waits where dispatch would park the sub-request:
		// on its shard's rmdir mark, or on a frozen server. Parking mid-batch
		// is impossible, and the batch must start over when woken.
		q := s.markWaits(sub.Op, sub.Dir)
		if q == nil && s.parksFrozen(sub.Op, sub.Epoch) {
			q = &s.migParked
		}
		if q != nil {
			q.park(batchReq, raw)
			return nil, true
		}
	}

	for len(s.subResps) < len(subs) {
		s.subResps = append(s.subResps, new(proto.Response))
	}
	resps := s.subResps[:len(subs)]
	failed := false
	for i := range subs {
		sub := &subs[i]
		info := sub.Op.Info()
		errno := fsapi.OK
		switch {
		case !info.Batchable:
			errno = fsapi.ENOSYS
		case failed && stopOnErr:
			errno = fsapi.ECANCELED
		case sub.Target == proto.PrevInode && info.Addr == proto.AddrInode:
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
			// Handlers answer in the shared scratch response, extent list
			// and listing; a batch holds several responses at once, each in
			// its own struct with its own extents and entries.
			exts := append(resps[i].Extents[:0], resp.Extents...)
			ents := append(resps[i].Ents[:0], resp.Ents...)
			*resps[i] = *resp
			resps[i].Extents, resps[i].Ents = exts, ents
		}
		// A close is not a chain member: nothing behind it needs what it did,
		// so one that fails stops nothing (DESIGN.md §7, "A clean close rides").
		if resps[i].Err != fsapi.OK && sub.Op != proto.OpCloseInode {
			failed = true
		}
	}

	s.batchedOps.Add(uint64(len(subs)))
	for i := range subs {
		s.countOp(subs[i].Op)
	}

	// replyAt encodes the sub-responses in place in the reply's buffer.
	return s.resp(proto.Response{Subs: resps}), false
}
