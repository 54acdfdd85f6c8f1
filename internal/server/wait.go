package server

import (
	"repro/internal/msg"
	"repro/internal/proto"
)

// How a request waits (DESIGN.md §3). The request loop never blocks: a
// request that cannot finish yet — a create into a shard an rmdir has marked,
// an entry mutation on a frozen server, an rmdir behind another's lock, a read
// of an empty pipe or a write to a full one — parks on the queue of what it
// waits for, and whatever resolves that wakes the queue. A woken request is
// served again from the start, through dispatch, so the rule that parked it is
// asked again and may park it again, on whatever queue it then picks. A parked
// request has had no effect yet; a crash hands every queue to the next
// incarnation (Server.orphans), which serves them again as it would the
// requests still in its inbox.

// parkedReq is a request whose reply has been deferred, with the envelope its
// reply goes back through.
type parkedReq struct {
	req *proto.Request
	env msg.Envelope
}

// waitq is a queue of parked requests, in the order they parked.
type waitq []parkedReq

// park appends a request to the queue.
func (q *waitq) park(req *proto.Request, env msg.Envelope) {
	*q = append(*q, parkedReq{req: req, env: env})
}

// take moves every request parked on from to the end of q.
func (q *waitq) take(from *waitq) {
	*q = append(*q, *from...)
	*from = nil
}

// wake serves every request parked on q again, in the order they parked. One
// that is answered is replied to at the server's current time — the later
// event that let it finish, a pipe's data, an rmdir's outcome, a migration's
// commit, a restart, is what it waited for — and its struct recycled; one
// that must still wait parks again, on whatever queue dispatch picks (q
// included).
func (s *Server) wake(q *waitq) {
	parked := *q
	*q = nil
	for _, p := range parked {
		resp, again := s.dispatch(p.req, p.env)
		if again {
			continue
		}
		s.replyAt(p.env, resp, s.clock.Now())
		s.putReq(p.req)
	}
}

// markWaits is the rmdir mark's park rule: a batchable, shard-addressed op on
// a shard that an rmdir's PREPARE has marked waits on that shard's queue until
// the COMMIT or ABORT. It returns nil for a request that need not wait.
func (s *Server) markWaits(op proto.Op, dir proto.InodeID) *waitq {
	if info := op.Info(); !info.Batchable || info.Addr != proto.AddrShard {
		return nil
	}
	if sh, ok := s.dirs.Get(dir); ok && sh.marked {
		return &sh.parked
	}
	return nil
}

// entryWaiters moves the requests that wait on the entries onto q: those
// parked by the freeze, then those on each shard's mark, shards in table
// order.
func (s *Server) entryWaiters(q *waitq) {
	q.take(&s.migParked)
	s.dirs.Range(func(_ proto.InodeID, sh *dirShard) bool {
		q.take(&sh.parked)
		return true
	})
}

// orphan moves every parked request onto s.orphans as a crash stops the
// loop, in a fixed order: the entries' waiters, then each inode's — its rmdir
// lock's, its pipe's readers' and writers' — inodes in table order.
func (s *Server) orphan() {
	s.entryWaiters(&s.orphans)
	s.inodes.Range(func(_ uint64, ino *inode) bool {
		if r := ino.rare; r != nil {
			s.orphans.take(&r.rmdirQueue)
		}
		if p := ino.pipe; p != nil {
			s.orphans.take(&p.waitReaders)
			s.orphans.take(&p.waitWriters)
		}
		return true
	})
}
