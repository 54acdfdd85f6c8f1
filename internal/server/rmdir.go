package server

import (
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
)

// The three-phase rmdir protocol (§3.3).
//
// Directory entries of a distributed directory live on every server, so a
// client removing the directory must atomically verify that *all* shards are
// empty while racing file creations are held off. The client library drives
// the protocol; servers only keep local state:
//
//	phase 0 (LOCK):    serialize concurrent rmdir()s of the same directory
//	                   at the directory's home server (avoids deadlock
//	                   between two clients preparing in different orders).
//	phase 1 (PREPARE): each server marks its shard for deletion iff the
//	                   shard holds no entries; while marked, operations on
//	                   the directory are parked. The mark is logged, so a
//	                   server that crashes and recovers before phase 2
//	                   still parks them.
//	phase 2 (COMMIT):  delete the shard (the directory is gone); or
//	        (ABORT):   clear the mark and resume parked operations.
//	finish  (FINISH):  at the home server, remove the directory inode and
//	                   release the serialization lock.

func (s *Server) handleRmdirLock(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno), false
	}
	if ino.ftype != fsapi.TypeDir {
		return s.errResp(fsapi.ENOTDIR), false
	}
	r := ino.rareState()
	if r.rmdirLocked {
		// Another client is already running the protocol on this
		// directory; park until it finishes.
		r.rmdirQueue.park(req, env)
		return nil, true
	}
	r.rmdirLocked = true
	return s.resp(proto.Response{Dist: ino.distributed}), false
}

func (s *Server) handleRmdirPrepare(req *proto.Request) *proto.Response {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT)
	}
	sh := s.shard(req.Dir)
	if sh.ents.Len() > 0 {
		return s.errResp(fsapi.ENOTEMPTY)
	}
	s.mark(sh, req.Dir, true)
	return s.resp(proto.Response{})
}

func (s *Server) handleRmdirCommit(req *proto.Request) *proto.Response {
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		s.deadDirs.Put(req.Dir, struct{}{})
		s.stageDirKill(req.Dir)
		return s.resp(proto.Response{})
	}
	// The shard is empty: PREPARE found it so, and its mark, logged, has
	// parked every entry op since, across a crash too (DESIGN.md §3). The
	// DIR_KILL below clears the mark with the shard.
	sh.marked = false
	s.entCount.Add(-int64(sh.ents.Len()))
	s.dirs.Delete(req.Dir)
	s.deadDirs.Put(req.Dir, struct{}{})
	// Parked operations now observe the dead directory and fail with
	// ENOENT, which is the correct outcome for a create that raced with a
	// committed rmdir. Their replies go out before this commit's record is
	// staged, so a parked reply cannot drain the record and absorb the
	// rmdir's own commit latency.
	s.wake(&sh.parked)
	s.stageDirKill(req.Dir)
	return s.resp(proto.Response{})
}

func (s *Server) handleRmdirAbort(req *proto.Request) *proto.Response {
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		return s.resp(proto.Response{})
	}
	s.mark(sh, req.Dir, false)
	s.wake(&sh.parked)
	return s.resp(proto.Response{})
}

// handleRmdirUnlock releases the home-server serialization without removing
// the directory (the protocol aborted). The waiting LOCKs are served again in
// the order they came: the first takes the lock, the rest wait again.
func (s *Server) handleRmdirUnlock(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if r := ino.rare; r != nil {
		r.rmdirLocked = false
		s.wake(&r.rmdirQueue)
	}
	return s.resp(proto.Response{})
}

// handleRmdirFinish removes the directory inode at its home server. The
// inode goes first, so the LOCKs waiting for it, served again, answer ENOENT;
// their replies go out before this finish stages its records.
func (s *Server) handleRmdirFinish(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	s.inodes.Delete(ino.local) // ino stays valid: a deleted slot keeps its contents
	if r := ino.rare; r != nil {
		s.wake(&r.rmdirQueue)
	}
	ino.nlink = 0
	s.stageNlink(ino)
	s.stageDirKill(s.id(ino))
	s.maybeReap(ino)
	s.deadDirs.Put(s.id(ino), struct{}{})
	return s.resp(proto.Response{})
}
