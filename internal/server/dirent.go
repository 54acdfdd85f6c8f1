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
	// tracker says which client libraries have the entry cached, in the
	// struct's padding: 0, none; a positive value, the one client, as its
	// endpoint id plus one; a negative value, the head of a chain in the
	// shard's pool of runs (trackPool), whose first slot is the first client.
	tracker int32
}

// dirShard is this server's slice of one directory's entries. For a
// distributed directory every server holds a shard; for a centralized
// directory only the home server does.
type dirShard struct {
	ents *table.Map[string, dirEnt]
	// names holds the bytes of every key of ents: a new key is kept there
	// (keep), and a key that leaves is dropped (drop).
	names table.Names
	// trackers holds the chains of the entries that more than one client
	// has cached.
	trackers trackPool
	// marked is set between the PREPARE and COMMIT/ABORT phases of the
	// rmdir protocol; while set, entry ops on this directory wait in parked
	// (markWaits).
	marked bool
	parked waitq
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

// keep returns a copy of name in the shard's slab, for ents to store as a
// new key. Whatever name is — a view of a request's envelope, a decoder's
// copy, a checkpoint's — the copy is the shard's.
func (sh *dirShard) keep(name string) string { return sh.names.Keep(name) }

// drop is called once name has left ents; a slab grown to more than twice
// its live names re-keeps them into fresh chunks, in place.
func (sh *dirShard) drop(name string) { sh.names.Drop(name, sh.ents.Rekey) }

// track records that the requester has the entry ent of sh cached. It
// reports whether ent changed, and the caller stores it: the requester became
// the entry's first tracker, or its second, which starts the entry's chain.
func (s *Server) track(sh *dirShard, ent *dirEnt) bool {
	return sh.trackers.add(&ent.tracker, int32(s.from), sh.ents.Len())
}

// invalidate sends directory-cache invalidation callbacks to every client
// tracked for the entry name of sh — first, the entry's first tracker, then
// the rest in insertion order, so the fan-out order is deterministic across
// runs — except the client at endpoint except, the requester of a change: it
// made the change, and drops or replaces its own cached copy (a migration's
// commit excepts nobody, -1). It forgets them all, the entry's chain going back to the
// shard's pool; the caller drops the entry or replaces it with one that has
// no tracker. Thanks to atomic message delivery the server does not wait for
// acknowledgements (§3.6.1).
func (s *Server) invalidate(sh *dirShard, dir proto.InodeID, name string, tracker int32, except msg.EndpointID) {
	if tracker == 0 {
		return // nobody has it cached
	}
	iv := proto.Invalidation{Dir: dir, Name: name}
	sh.trackers.release(tracker, func(client int32) { s.callBack(msg.EndpointID(client), except, &iv) })
}

// callBack sends iv to the client at endpoint ep unless it is except.
func (s *Server) callBack(ep, except msg.EndpointID, iv *proto.Invalidation) {
	if ep != except {
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
		s.invalidations.Add(1)
	}
}

// --- directory entry handlers ---

func (s *Server) handleLookup(req *proto.Request) *proto.Response {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT)
	}
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		return s.errResp(fsapi.ENOENT)
	}
	ent, ok := sh.ents.Get(req.Name)
	if !ok {
		return s.errResp(fsapi.ENOENT)
	}
	if s.track(sh, &ent) {
		sh.ents.Put(req.Name, ent) // the entry keeps its stored key
	}
	return s.resp(proto.Response{
		Ino:    ent.target,
		Server: ent.target.Server,
		Ftype:  ent.ftype,
		Dist:   ent.dist,
	})
}

func (s *Server) handleAddMap(req *proto.Request) *proto.Response {
	if !fsapi.ValidName(req.Name) {
		return s.errResp(fsapi.EINVAL)
	}
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT)
	}
	sh := s.shard(req.Dir)
	old, exists := sh.ents.Get(req.Name)
	if exists && !req.Replace {
		return s.resp(proto.Response{
			Err:    fsapi.EEXIST,
			Ino:    old.target,
			Server: old.target.Server,
			Ftype:  old.ftype,
			Dist:   old.dist,
		})
	}
	ent := dirEnt{target: req.Target, ftype: req.Ftype, dist: req.Distributed}
	name := req.Name // a replaced entry keeps the key it is stored under
	if exists {
		s.invalidate(sh, req.Dir, name, old.tracker, s.from)
	} else {
		name = sh.keep(name)
		s.entCount.Add(1)
	}
	s.track(sh, &ent)
	sh.ents.Put(name, ent)
	s.stageAddMap(req.Dir, name, ent)
	resp := s.resp(proto.Response{})
	if exists {
		resp.Ino = old.target
		resp.Server = old.target.Server
		resp.Ftype = old.ftype
		resp.N = 1
	} else {
		resp.Ino = proto.NilInode
	}
	return resp
}

func (s *Server) handleRmMap(req *proto.Request) *proto.Response {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT)
	}
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		return s.errResp(fsapi.ENOENT)
	}
	ent, ok := sh.ents.Get(req.Name)
	if !ok {
		return s.errResp(fsapi.ENOENT)
	}
	// Unlink must not remove directories and rmdir must not remove files;
	// the client states which type it expects (zero means "any", used by
	// rename).
	if req.Ftype == fsapi.TypeRegular && ent.ftype == fsapi.TypeDir {
		return s.errResp(fsapi.EISDIR)
	}
	if req.Ftype == fsapi.TypeDir && ent.ftype != fsapi.TypeDir {
		return s.errResp(fsapi.ENOTDIR)
	}
	sh.ents.Delete(req.Name)
	sh.drop(req.Name)
	s.entCount.Add(-1)
	s.stageRmMap(req.Dir, req.Name)
	s.invalidate(sh, req.Dir, req.Name, ent.tracker, s.from)
	return s.resp(proto.Response{
		Ino:    ent.target,
		Server: ent.target.Server,
		Ftype:  ent.ftype,
		Dist:   ent.dist,
	})
}

func (s *Server) handleReadDirShard(req *proto.Request) *proto.Response {
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT)
	}
	sh, ok := s.dirs.Get(req.Dir)
	if !ok {
		// No entries ever created on this server for the directory;
		// an empty listing, not an error.
		return s.resp(proto.Response{})
	}
	// The listing is cut from a scratch the next one reuses, as the extent
	// list is (extentList).
	ents := s.entScratch[:0]
	sh.ents.Range(func(name string, ent dirEnt) bool {
		ents = append(ents, proto.DirEntWire{Name: name, Ino: ent.target, Ftype: ent.ftype})
		return true
	})
	s.entScratch = ents
	return s.resp(proto.Response{Ents: ents, N: int64(len(ents))})
}

// handleCreateCoalesced creates the inode, adds the directory entry, and
// (optionally) opens a descriptor in a single message. It is used when
// creation affinity places the new inode on the same server that stores the
// directory entry (§3.6.3, §3.6.4).
func (s *Server) handleCreateCoalesced(req *proto.Request) *proto.Response {
	if !fsapi.ValidName(req.Name) {
		return s.errResp(fsapi.EINVAL)
	}
	if s.deadDir(req.Dir) {
		return s.errResp(fsapi.ENOENT)
	}
	sh := s.shard(req.Dir)
	if old, exists := sh.ents.Get(req.Name); exists {
		// The client falls back to the plain open path (or reports
		// EEXIST for O_EXCL); return the existing entry's location.
		return s.resp(proto.Response{
			Err:    fsapi.EEXIST,
			Ino:    old.target,
			Server: old.target.Server,
			Ftype:  old.ftype,
			Dist:   old.dist,
		})
	}
	ftype := req.Ftype
	if ftype == 0 {
		ftype = fsapi.TypeRegular
	}
	ino := s.allocInode(ftype, req.Mode, req.Distributed)
	ent := dirEnt{target: s.id(ino), ftype: ftype, dist: req.Distributed}
	name := sh.keep(req.Name) // the new entry's key
	s.track(sh, &ent)
	sh.ents.Put(name, ent)
	s.entCount.Add(1)
	s.stageInode(ino)
	s.stageAddMap(req.Dir, name, ent)
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
	})
}
