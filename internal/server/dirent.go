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
	// tracker is the first client library that has the entry cached, as its
	// id plus one (0: none). It sits in the struct's padding; the clients
	// after it are in the shard's more.
	tracker int32
}

// dirShard is this server's slice of one directory's entries. For a
// distributed directory every server holds a shard; for a centralized
// directory only the home server does.
type dirShard struct {
	ents *table.Map[string, dirEnt]
	// more holds, per entry, the clients tracked after its first, in
	// insertion order (so invalidation fan-outs are deterministic). Nil until
	// an entry of the shard is cached by a second client.
	more *table.Map[string, []int32]
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

// shard returns this server's shard for dir, creating it if needed.
func (s *Server) shard(dir proto.InodeID) *dirShard {
	sh, ok := s.dirs.Get(dir)
	if !ok {
		sh = &dirShard{ents: table.New[string, dirEnt](table.HashString, 0)}
		s.dirs.Put(dir, sh)
	}
	return sh
}

// track records that client has the entry name of sh cached. It reports
// whether client became the entry's first tracker: ent changed, and the
// caller stores it.
func (s *Server) track(sh *dirShard, name string, ent *dirEnt, client int32) bool {
	if client < 0 {
		return false
	}
	switch ent.tracker {
	case 0:
		ent.tracker = client + 1
		return true
	case client + 1:
		return false
	}
	if sh.more == nil {
		sh.more = table.New[string, []int32](table.HashString, 0)
	}
	rest, _ := sh.more.Get(name)
	for _, c := range rest {
		if c == client {
			return false
		}
	}
	if rest == nil {
		rest = make([]int32, 0, 4) // an entry shared by a few clients grows once
	}
	sh.more.Put(name, append(rest, client))
	return false
}

// invalidate sends directory-cache invalidation callbacks to every client
// tracked for the entry name of sh — first, the entry's tracker, then the
// rest in insertion order, so the fan-out order is deterministic across
// runs — except the requester: it made the change, and drops or replaces its
// own cached copy. It forgets the rest; the caller drops the entry or
// replaces it with one that has no tracker. Thanks to atomic message
// delivery the server does not wait for acknowledgements (§3.6.1).
func (s *Server) invalidate(sh *dirShard, dir proto.InodeID, name string, first, except int32) {
	if first == 0 {
		return // nobody has it cached, so nobody has a second copy either
	}
	iv := proto.Invalidation{Dir: dir, Name: name}
	s.callBack(first-1, except, &iv)
	if sh.more == nil {
		return
	}
	rest, ok := sh.more.Get(name)
	if !ok {
		return
	}
	sh.more.Delete(name)
	for _, client := range rest {
		s.callBack(client, except, &iv)
	}
}

// callBack sends iv to client unless it is the requester.
func (s *Server) callBack(client, except int32, iv *proto.Invalidation) {
	if client == except {
		return
	}
	if ep, ok := s.cfg.Registry.Lookup(client); ok {
		s.sendInvalidation(ep, iv)
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
	if s.track(sh, req.Name, &ent, req.ClientID) {
		sh.ents.Put(req.Name, ent)
	}
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
	if exists {
		s.invalidate(sh, req.Dir, req.Name, old.tracker, req.ClientID)
	} else {
		s.entCount.Add(1)
	}
	s.track(sh, req.Name, &ent, req.ClientID)
	sh.ents.Put(req.Name, ent)
	s.stageAddMap(req.Dir, req.Name, ent)
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
	s.invalidate(sh, req.Dir, req.Name, ent.tracker, req.ClientID)
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
	s.track(sh, req.Name, &ent, req.ClientID)
	sh.ents.Put(req.Name, ent)
	s.entCount.Add(1)
	s.stageInode(ino)
	s.stageAddMap(req.Dir, req.Name, ent)
	if req.WantOpen {
		ino.fdRefs++
	}
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
