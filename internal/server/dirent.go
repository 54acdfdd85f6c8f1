package server

import (
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/table"
)

// dirEnt is one directory entry stored on this server. Each entry records
// both the inode and the server storing it (inodes do not identify their
// server on their own, §3.6.1), plus the entry type and — for directories —
// whether the directory's own entries are distributed.
type dirEnt struct {
	target proto.InodeID
	ftype  fsapi.FileType
	dist   bool
}

// dirShard is this server's slice of one directory's entries. For a
// distributed directory every server holds a shard; for a centralized
// directory only the home server does.
type dirShard struct {
	ents *table.Map[string, dirEnt]
	// marked is set between the PREPARE and COMMIT/ABORT phases of the
	// rmdir protocol; while set, operations on this directory are parked.
	marked bool
	parked []parkedReq
}

// parkedReq is a request whose reply has been deferred (rmdir mark, blocked
// pipe read/write, rmdir lock queue).
type parkedReq struct {
	req *proto.Request
	env msg.Envelope
}

// direntKey identifies one directory entry for invalidation tracking.
type direntKey struct {
	dir  proto.InodeID
	name string
}

// shard returns this server's shard for dir, creating it if needed.
func (s *Server) shard(dir proto.InodeID) *dirShard {
	sh, ok := s.dirs.Get(dir)
	if !ok {
		sh = &dirShard{ents: table.New[string, dirEnt](table.HashString, 0)}
		s.dirs.Put(dir, sh)
	}
	return sh
}

// track records that client has the entry cached.
func (s *Server) track(dir proto.InodeID, name string, client int32) {
	if client < 0 {
		return
	}
	key := direntKey{dir, name}
	set, _ := s.tracking.Get(key)
	for _, c := range set {
		if c == client {
			return
		}
	}
	s.tracking.Put(key, append(set, client))
}

// invalidate sends directory-cache invalidation callbacks to every client
// tracked for (dir, name) except the requester — it made the change, and
// drops or replaces its own cached copy — then clears the tracking set.
// Thanks to atomic message delivery the server does not wait for
// acknowledgements (§3.6.1). The set is insertion-ordered, so the fan-out
// order is deterministic across runs.
func (s *Server) invalidate(dir proto.InodeID, name string, except int32) {
	key := direntKey{dir, name}
	set, ok := s.tracking.Get(key)
	if !ok {
		return
	}
	s.tracking.Delete(key)
	iv := proto.Invalidation{Dir: dir, Name: name}
	for _, client := range set {
		if client == except {
			continue
		}
		if ep, ok := s.cfg.Registry.Lookup(client); ok {
			s.sendInvalidation(ep, &iv)
		}
	}
}

// sendInvalidation charges one send and delivers iv to a client's callback
// queue. The envelope owns a pooled payload, which the receiving client hands
// back to this endpoint's cache.
func (s *Server) sendInvalidation(dst msg.EndpointID, iv *proto.Invalidation) {
	end := s.cfg.Machine.Execute(s.cfg.Core, s.clock.Now(), s.cfg.Machine.Cost.MsgSend)
	s.clock.AdvanceTo(end)
	payload := iv.AppendTo(s.ep.GetBuf(iv.SizeHint()))
	if _, err := s.cfg.Network.SendCallback(s.ep, dst, proto.KindCallback, payload, s.clock.Now()); err == nil {
		s.statsMu.Lock()
		s.stats.Invalidations++
		s.statsMu.Unlock()
	}
}

// park defers a request on a shard until its rmdir mark is resolved.
func (s *Server) park(sh *dirShard, req *proto.Request, env msg.Envelope) {
	sh.parked = append(sh.parked, parkedReq{req: req, env: env})
}

// unparkShard re-dispatches every request parked on the shard.
func (s *Server) unparkShard(sh *dirShard) {
	parked := sh.parked
	sh.parked = nil
	for _, p := range parked {
		resp, again := s.dispatch(p.req, p.env)
		if again {
			continue
		}
		s.reply(p.env, resp)
		s.putReq(p.req)
	}
}

// --- directory entry handlers ---

func (s *Server) handleLookup(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT), false
	}
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		return s.errResp(fsapi.ENOENT), false
	}
	if sh.marked {
		s.park(sh, req, env)
		return nil, true
	}
	ent, ok := sh.ents.Get(req.Name)
	if !ok {
		return s.errResp(fsapi.ENOENT), false
	}
	s.track(req.Dir, req.Name, req.ClientID)
	return s.resp(proto.Response{
		Ino:    ent.target,
		Server: ent.target.Server,
		Ftype:  ent.ftype,
		Dist:   ent.dist,
	}), false
}

func (s *Server) handleAddMap(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	if !fsapi.ValidName(req.Name) {
		return s.errResp(fsapi.EINVAL), false
	}
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT), false
	}
	sh := s.shard(req.Dir)
	if sh.marked {
		s.park(sh, req, env)
		return nil, true
	}
	old, exists := sh.ents.Get(req.Name)
	if exists && !req.Replace {
		return s.resp(proto.Response{
			Err:    fsapi.EEXIST,
			Ino:    old.target,
			Server: old.target.Server,
			Ftype:  old.ftype,
			Dist:   old.dist,
		}), false
	}
	ent := dirEnt{target: req.Target, ftype: req.Ftype, dist: req.Distributed}
	sh.ents.Put(req.Name, ent)
	if !exists {
		s.entCount.Add(1)
	}
	s.stageAddMap(req.Dir, req.Name, ent)
	if exists {
		s.invalidate(req.Dir, req.Name, req.ClientID)
	}
	s.track(req.Dir, req.Name, req.ClientID)
	resp := s.resp(proto.Response{})
	if exists {
		resp.Ino = old.target
		resp.Server = old.target.Server
		resp.Ftype = old.ftype
		resp.N = 1
	} else {
		resp.Ino = proto.NilInode
	}
	return resp, false
}

func (s *Server) handleRmMap(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT), false
	}
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		return s.errResp(fsapi.ENOENT), false
	}
	if sh.marked {
		s.park(sh, req, env)
		return nil, true
	}
	ent, ok := sh.ents.Get(req.Name)
	if !ok {
		return s.errResp(fsapi.ENOENT), false
	}
	// Unlink must not remove directories and rmdir must not remove files;
	// the client states which type it expects (zero means "any", used by
	// rename).
	if req.Ftype == fsapi.TypeRegular && ent.ftype == fsapi.TypeDir {
		return s.errResp(fsapi.EISDIR), false
	}
	if req.Ftype == fsapi.TypeDir && ent.ftype != fsapi.TypeDir {
		return s.errResp(fsapi.ENOTDIR), false
	}
	sh.ents.Delete(req.Name)
	s.entCount.Add(-1)
	s.stageRmMap(req.Dir, req.Name)
	s.invalidate(req.Dir, req.Name, req.ClientID)
	return s.resp(proto.Response{
		Ino:    ent.target,
		Server: ent.target.Server,
		Ftype:  ent.ftype,
		Dist:   ent.dist,
	}), false
}

func (s *Server) handleReadDirShard(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT), false
	}
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		// No entries ever created on this server for the directory;
		// an empty listing, not an error.
		return s.resp(proto.Response{}), false
	}
	if sh.marked {
		s.park(sh, req, env)
		return nil, true
	}
	ents := make([]proto.DirEntWire, 0, sh.ents.Len())
	sh.ents.Range(func(name string, ent dirEnt) bool {
		ents = append(ents, proto.DirEntWire{Name: name, Ino: ent.target, Ftype: ent.ftype})
		return true
	})
	return s.resp(proto.Response{Ents: ents, N: int64(len(ents))}), false
}

// handleCreateCoalesced creates the inode, adds the directory entry, and
// (optionally) opens a descriptor in a single message. It is used when
// creation affinity places the new inode on the same server that stores the
// directory entry (§3.6.3, §3.6.4).
func (s *Server) handleCreateCoalesced(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	if !fsapi.ValidName(req.Name) {
		return s.errResp(fsapi.EINVAL), false
	}
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT), false
	}
	sh := s.shard(req.Dir)
	if sh.marked {
		s.park(sh, req, env)
		return nil, true
	}
	if old, exists := sh.ents.Get(req.Name); exists {
		// The client falls back to the plain open path (or reports
		// EEXIST for O_EXCL); return the existing entry's location.
		return s.resp(proto.Response{
			Err:    fsapi.EEXIST,
			Ino:    old.target,
			Server: old.target.Server,
			Ftype:  old.ftype,
			Dist:   old.dist,
		}), false
	}
	ftype := req.Ftype
	if ftype == 0 {
		ftype = fsapi.TypeRegular
	}
	ino := s.allocInode(ftype, req.Mode, req.Distributed)
	ent := dirEnt{target: s.id(ino), ftype: ftype, dist: req.Distributed}
	sh.ents.Put(req.Name, ent)
	s.entCount.Add(1)
	s.stageInode(ino)
	s.stageAddMap(req.Dir, req.Name, ent)
	if req.WantOpen {
		ino.fdRefs++
	}
	s.track(req.Dir, req.Name, req.ClientID)
	return s.resp(proto.Response{
		Ino:     s.id(ino),
		Server:  int32(s.cfg.ID),
		Ftype:   ftype,
		Size:    0,
		Version: ino.version,
		Dist:    req.Distributed,
		Stat:    s.statOf(ino),
	}), false
}
