package server

import (
	"repro/internal/fsapi"
	"repro/internal/ncc"
	"repro/internal/proto"
)

// inode is the server-side representation of a file, directory or pipe.
// Inodes live on the server that created them and never migrate, in place in
// the inode table's page that their number names (table.Dense). The struct
// holds what every inode uses (80 bytes); state that nearly every inode
// leaves empty hangs off rare.
type inode struct {
	local uint64
	ftype fsapi.FileType
	mode  fsapi.Mode
	nlink int32
	size  int64

	// blocks is the ordered buffer-cache block map holding file data, as
	// runs: one run, the usual case, is held in place.
	blocks ncc.BlockMap
	// version counts data mutations (writes acknowledged at close/fsync,
	// server-side writes, extends, truncates). OPEN and CLOSE return it so a
	// client re-opening a file whose version matches its cached copy can
	// skip invalidating the file's blocks (DESIGN.md §8). After a crash,
	// versions restart in a fresh incarnation's range (verBase), so a stale
	// pre-crash version can never match.
	version uint64
	// fdRefs counts open file descriptors (across all client libraries)
	// referring to this inode. Data blocks are reclaimed only when the
	// count drops to zero (supports reading unlinked files, and defers
	// block reuse after truncate, §3.2/§3.4).
	fdRefs int32
	// distributed is a directory's: its entries are sharded over servers.
	distributed bool

	// Pipe state.
	pipe *pipeState
	// rare is allocated by a truncate under open descriptors or an rmdir
	// lock, and kept from then on.
	rare *inodeRare
}

// inodeRare is the state of an inode that only a truncate under open
// descriptors or an rmdir lock gives it.
type inodeRare struct {
	// deferred holds blocks removed by truncate that cannot be reused
	// until all file descriptors are closed.
	deferred ncc.BlockMap
	// rmdirLocked serializes rmdir()s of a directory at its home server;
	// the rmdirs waiting for the lock queue in rmdirQueue.
	rmdirLocked bool
	rmdirQueue  waitq
}

// rareState returns the inode's rare state, allocating it on first need.
func (ino *inode) rareState() *inodeRare {
	if ino.rare == nil {
		ino.rare = new(inodeRare)
	}
	return ino.rare
}

// id returns the global InodeID of this inode on server s.
func (s *Server) id(ino *inode) proto.InodeID {
	return proto.InodeID{Server: int32(s.cfg.ID), Local: ino.local}
}

// getInode looks up a local inode addressed by a request Target.
func (s *Server) getInode(target proto.InodeID) (*inode, fsapi.Errno) {
	if target.Server != int32(s.cfg.ID) {
		return nil, fsapi.ESTALE
	}
	ino, ok := s.inodes.Get(target.Local)
	if !ok {
		return nil, fsapi.ENOENT
	}
	return ino, fsapi.OK
}

// allocInode creates a new inode of the given type on this server.
func (s *Server) allocInode(ftype fsapi.FileType, mode fsapi.Mode, distributed bool) *inode {
	ino := s.inodes.Put(s.nextIno)
	*ino = inode{
		local:       s.nextIno,
		ftype:       ftype,
		mode:        mode,
		nlink:       1,
		distributed: distributed,
		version:     s.verBase,
	}
	s.nextIno++
	return ino
}

// bumpVersion records a data mutation on the inode. Every path that changes
// file contents, the block list, or the size calls it, so a version match at
// open proves the client's cached copy is still byte-identical to DRAM.
func (s *Server) bumpVersion(ino *inode) { ino.version++ }

// extentList copies the inode's block map out as the runs a reply carries:
// message bytes scale with the file's fragmentation, not its size. The
// result is the server's scratch list (as large as the most fragmented map
// it has served): it is good until the next call, which comes after the
// response that carries it is marshaled — or, in a batch, copied
// (dispatchBatch).
func (s *Server) extentList(ino *inode) []proto.Extent {
	out := s.extScratch[:0]
	ino.blocks.Runs(func(e ncc.Extent) bool {
		out = append(out, e)
		return true
	})
	s.extScratch = out
	return out
}

// ensureCapacity allocates blocks so the file can hold size bytes, and
// reports whether it took any. It takes all it needs or none: on ENOSPC the
// blocks it got go back to the partition, so the inode's map and the free
// list are as they were.
func (s *Server) ensureCapacity(ino *inode, size int64) (grew bool, errno fsapi.Errno) {
	bs := int64(s.cfg.DRAM.BlockSize())
	have := ino.blocks.Len()
	for n := int64(have); n*bs < size; n++ {
		b, err := s.cfg.Partition.Alloc()
		if err != nil {
			var got ncc.BlockMap
			ino.blocks.Cut(have, &got)
			s.cfg.Partition.Free(&got)
			return false, fsapi.ENOSPC
		}
		ino.blocks.Append(b)
	}
	return ino.blocks.Len() != have, fsapi.OK
}

// releaseData frees the inode's data blocks (and any deferred blocks) back
// to this server's buffer-cache partition.
func (s *Server) releaseData(ino *inode) {
	s.cfg.Partition.Free(&ino.blocks)
	s.freeDeferred(ino)
}

// freeDeferred frees the blocks a truncate removed while descriptors were
// open.
func (s *Server) freeDeferred(ino *inode) {
	if r := ino.rare; r != nil {
		s.cfg.Partition.Free(&r.deferred)
	}
}

// maybeReap frees the inode's storage if it is no longer referenced: no
// links and no open file descriptors.
func (s *Server) maybeReap(ino *inode) {
	if ino.fdRefs > 0 {
		return
	}
	// No open descriptors: deferred (truncated) blocks can be reused now.
	s.freeDeferred(ino)
	if ino.nlink <= 0 {
		s.releaseData(ino)
		s.inodes.Delete(ino.local)
	}
}

// statOf builds the wire Stat for an inode.
func (s *Server) statOf(ino *inode) proto.StatWire {
	return proto.StatWire{
		Ino:   s.id(ino),
		Ftype: ino.ftype,
		Size:  ino.size,
		Nlink: ino.nlink,
		Mode:  ino.mode,
	}
}

// checkPerm verifies the open flags against the inode's owner permission
// bits (the prototype runs everything as one user, like the paper's).
func checkPerm(ino *inode, flags int32) fsapi.Errno {
	owner := ino.mode.OwnerBits()
	acc := flags & fsapi.OAccMode
	if (acc == fsapi.ORdOnly || acc == fsapi.ORdWr) && owner&fsapi.ModeRead == 0 {
		return fsapi.EACCES
	}
	if (acc == fsapi.OWrOnly || acc == fsapi.ORdWr) && owner&fsapi.ModeWrite == 0 {
		return fsapi.EACCES
	}
	return fsapi.OK
}

// --- inode operation handlers ---

func (s *Server) handleMknod(req *proto.Request) *proto.Response {
	ftype := req.Ftype
	if ftype == 0 {
		ftype = fsapi.TypeRegular
	}
	ino := s.allocInode(ftype, req.Mode, req.Distributed)
	s.stageInode(ino)
	return s.resp(proto.Response{Ino: s.id(ino), Ftype: ino.ftype, Dist: ino.distributed})
}

func (s *Server) handleLinkInode(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	ino.nlink++
	s.stageNlink(ino)
	return s.resp(proto.Response{N: int64(ino.nlink)})
}

func (s *Server) handleUnlinkInode(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if ino.nlink > 0 {
		ino.nlink--
	}
	s.stageNlink(ino)
	s.maybeReap(ino)
	return s.resp(proto.Response{N: int64(ino.nlink)})
}

func (s *Server) handleOpenInode(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if ino.ftype == fsapi.TypeDir && (req.Flags&fsapi.OAccMode) != fsapi.ORdOnly {
		return s.errResp(fsapi.EISDIR)
	}
	if errno := checkPerm(ino, req.Flags); errno != fsapi.OK {
		return s.errResp(errno)
	}
	if req.Flags&fsapi.OTrunc != 0 && ino.ftype == fsapi.TypeRegular {
		if s.truncateTo(ino, 0) {
			s.bumpVersion(ino)
		}
		s.stageBlocks(ino)
	}
	ino.fdRefs++
	return s.resp(proto.Response{
		Ino:     s.id(ino),
		Ftype:   ino.ftype,
		Size:    ino.size,
		Extents: s.extentList(ino),
		Version: ino.version,
		Stat:    s.statOf(ino),
		Dist:    ino.distributed,
	})
}

func (s *Server) handleCloseInode(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	// A close may carry the client's final view of the size (coalesced
	// SET_SIZE + CLOSE, §3.6.3). Sizes only grow here; truncation uses
	// OpTruncate explicitly.
	if req.Size > ino.size {
		ino.size = req.Size
		s.stageSize(ino)
	}
	// The Dirty flag says the client wrote the file's data directly in the
	// buffer cache (and has just written it back): other clients' cached
	// copies are now stale, so the data version moves on. The new version is
	// returned so the closing client — whose cache IS the new contents —
	// can skip invalidation on its own reopen.
	if req.Dirty {
		s.bumpVersion(ino)
	}
	if ino.fdRefs > 0 {
		ino.fdRefs--
	}
	s.maybeReap(ino)
	return s.resp(proto.Response{Size: ino.size, Version: ino.version})
}

func (s *Server) handleGetBlocks(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	return s.resp(proto.Response{Size: ino.size, Extents: s.extentList(ino), Version: ino.version})
}

func (s *Server) handleExtend(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	grew, errno := s.ensureCapacity(ino, req.Size)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if grew {
		s.bumpVersion(ino)
		s.stageBlocks(ino)
	}
	return s.resp(proto.Response{Size: ino.size, Extents: s.extentList(ino), Version: ino.version})
}

func (s *Server) handleSetSize(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if req.Size > ino.size {
		ino.size = req.Size
		s.stageSize(ino)
	}
	// SET_SIZE is only sent after direct writes (fsync/sync), so the file's
	// data changed even when the size did not.
	s.bumpVersion(ino)
	return s.resp(proto.Response{Size: ino.size, Version: ino.version})
}

// truncateTo shrinks the file to size, deferring block reuse while file
// descriptors remain open (another core's client library may still be
// writing those blocks directly, §3.2). It reports whether the size or the
// block list actually changed (so callers bump the data version only for
// real mutations).
func (s *Server) truncateTo(ino *inode, size int64) bool {
	if size < 0 {
		size = 0
	}
	bs := int64(s.cfg.DRAM.BlockSize())
	keep := int((size + bs - 1) / bs)
	changed := false
	if keep < ino.blocks.Len() {
		if ino.fdRefs > 0 {
			ino.blocks.Cut(keep, &ino.rareState().deferred)
		} else {
			var removed ncc.BlockMap
			ino.blocks.Cut(keep, &removed)
			s.cfg.Partition.Free(&removed)
		}
		changed = true
	}
	if ino.size != size {
		ino.size = size
		changed = true
	}
	return changed
}

func (s *Server) handleTruncate(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if ino.ftype != fsapi.TypeRegular {
		return s.errResp(fsapi.EINVAL)
	}
	// truncateTo both trims capacity beyond the new size (deferring reuse
	// while descriptors remain open) and sets the logical size, growing or
	// shrinking as needed. A growing truncate must also allocate the blocks
	// covering the new size — Alloc hands them over zeroed, which is exactly
	// POSIX's zero-filled gap — or the tail would be unreadable. The bump is
	// unconditional — clients count an explicit TRUNCATE as exactly one
	// version step when tracking their consistency window, even when the
	// size happens to be unchanged.
	// Capacity first: if the partition cannot back the new size, the
	// inode must be left untouched (size included), or a failed grow
	// would report ENOSPC yet stat at the grown size with an unreadable,
	// unlogged tail. For a shrink this is a no-op.
	if _, errno := s.ensureCapacity(ino, req.Size); errno != fsapi.OK {
		return s.errResp(errno)
	}
	old := ino.size
	s.truncateTo(ino, req.Size)
	if req.Size < old {
		// Zero the tail of the surviving partial block. Freed whole blocks
		// come back zeroed from Alloc, but without this a later growing
		// truncate would expose the shrunk-away bytes instead of POSIX's
		// zeros. Staged as a write record so replayed recoveries (including
		// memory-loss recoveries from an older checkpoint) preserve the
		// bytes-beyond-EOF-are-zero invariant.
		bs := int64(s.cfg.DRAM.BlockSize())
		if tail := req.Size % bs; tail != 0 {
			zeros := make([]byte, bs-tail)
			s.writeData(ino, req.Size, zeros)
			s.stageWrite(ino, req.Size, zeros)
		}
	}
	s.bumpVersion(ino)
	s.stageBlocks(ino)
	return s.resp(proto.Response{Size: ino.size, Extents: s.extentList(ino), Version: ino.version})
}

func (s *Server) handleStat(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	return s.resp(proto.Response{Stat: s.statOf(ino), Ftype: ino.ftype, Size: ino.size, Dist: ino.distributed})
}

// handleReadAt serves file reads through the server. It is used when direct
// buffer-cache access is disabled (the Figure 12 ablation); the server reads
// the shared DRAM on the client's behalf.
func (s *Server) handleReadAt(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	n := int64(req.Count)
	if req.Offset >= ino.size {
		return s.resp(proto.Response{N: 0})
	}
	if req.Offset+n > ino.size {
		n = ino.size - req.Offset
	}
	data := make([]byte, n)
	s.readData(ino, req.Offset, data)
	return s.resp(proto.Response{Data: data, N: n})
}

// handleWriteAt serves file writes through the server (direct access
// disabled). It extends the file as needed and updates the size eagerly.
func (s *Server) handleWriteAt(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	end := req.Offset + int64(len(req.Data))
	grew, errno := s.ensureCapacity(ino, end)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	s.writeData(ino, req.Offset, req.Data)
	if end > ino.size {
		ino.size = end
	}
	if grew {
		s.stageBlocks(ino)
	}
	s.stageWrite(ino, req.Offset, req.Data)
	s.bumpVersion(ino)
	return s.resp(proto.Response{N: int64(len(req.Data)), Size: ino.size, Version: ino.version})
}

// readData copies file contents [off, off+len(dst)) from the shared DRAM,
// run by run; what lies past the block map is left as it is. Servers access
// DRAM directly (they own the authoritative copy and their private-cache
// coherence is managed trivially by never caching file data).
func (s *Server) readData(ino *inode, off int64, dst []byte) {
	s.eachBlock(ino, off, len(dst), func(b ncc.BlockID, bo int) {
		dst = dst[s.cfg.DRAM.ReadDirect(b, bo, dst):]
	})
}

// writeData copies src into the file at off; capacity must already exist.
func (s *Server) writeData(ino *inode, off int64, src []byte) {
	s.eachBlock(ino, off, len(src), func(b ncc.BlockID, bo int) {
		src = src[s.cfg.DRAM.WriteDirect(b, bo, src):]
	})
}

// eachBlock calls f, in order, with each mapped block that holds a byte of
// [off, off+n) and the offset in that block of the first such byte, walking
// the map run by run.
func (s *Server) eachBlock(ino *inode, off int64, n int, f func(b ncc.BlockID, bo int)) {
	bs := int64(s.cfg.DRAM.BlockSize())
	bo := int(off % bs)
	ino.blocks.RunsIn(int(off/bs), int((off+int64(n)+bs-1)/bs), func(e ncc.Extent) bool {
		for j := uint64(0); j < e.Count; j++ {
			f(e.Start+ncc.BlockID(j), bo)
			bo = 0
		}
		return true
	})
}
