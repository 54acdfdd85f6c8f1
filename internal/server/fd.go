package server

import (
	"repro/internal/fsapi"
	"repro/internal/proto"
)

// sharedFd is the server-side state of a file descriptor shared between
// processes (§3.4). While shared, the offset lives here and every read,
// write, and seek goes through the server so that all sharers observe a
// consistent offset.
type sharedFd struct {
	ino    uint64 // local inode number on this server
	offset int64
	refs   int
	flags  int32
}

func (s *Server) getSharedFd(id proto.FdID) (*sharedFd, fsapi.Errno) {
	fd, ok := s.sharedFds.Get(id)
	if !ok {
		return nil, fsapi.EBADF
	}
	return fd, fsapi.OK
}

// handleFdShare migrates an offset from a client library to this server.
// The new shared descriptor starts with a single reference — the caller's
// own — and the caller separately increments it (OpFdIncRef) on behalf of
// each process that will share it. The inode's open-descriptor count is not
// changed here: the caller already holds a reference from its open().
func (s *Server) handleFdShare(req *proto.Request) *proto.Response {
	ino, errno := s.getInode(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	// Sharing a descriptor the client had written through flushes its dirty
	// data to DRAM first; the share request coalesces the resulting size
	// update (sizes only grow here, like CLOSE) and the version bump other
	// clients' caches must observe, saving a separate SET_SIZE message.
	if req.Dirty {
		if req.Size > ino.size {
			ino.size = req.Size
			s.stageSize(ino)
		}
		s.bumpVersion(ino)
	}
	id := s.nextFd
	s.nextFd++
	s.sharedFds.Put(id, &sharedFd{ino: ino.local, offset: req.Offset, refs: 1, flags: req.Flags})
	return s.resp(proto.Response{Fd: id, Refs: 1, Version: ino.version})
}

func (s *Server) handleFdIncRef(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	fd.refs++
	if ino, ok := s.inodes.Get(fd.ino); ok {
		ino.fdRefs++
	}
	return s.resp(proto.Response{Fd: req.Fd, Refs: int32(fd.refs)})
}

func (s *Server) handleFdDecRef(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	fd.refs--
	if ino, ok := s.inodes.Get(fd.ino); ok {
		if ino.fdRefs > 0 {
			ino.fdRefs--
		}
		s.maybeReap(ino)
	}
	if fd.refs <= 0 {
		s.sharedFds.Delete(req.Fd)
	}
	return s.resp(proto.Response{Refs: int32(fd.refs), Offset: fd.offset})
}

// handleFdUnshare lets the last remaining holder of a shared descriptor pull
// the offset back into its client library (the descriptor reverts to local
// state, §3.4). The inode's open-descriptor count is unchanged: the holder
// keeps its reference.
func (s *Server) handleFdUnshare(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if fd.refs != 1 {
		return s.errResp(fsapi.EBUSY)
	}
	s.sharedFds.Delete(req.Fd)
	return s.resp(proto.Response{Offset: fd.offset})
}

func (s *Server) handleFdRead(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	ino, ok := s.inodes.Get(fd.ino)
	if !ok {
		return s.errResp(fsapi.ESTALE)
	}
	n := int64(req.Count)
	if fd.offset >= ino.size {
		return s.resp(proto.Response{N: 0, Offset: fd.offset, Refs: int32(fd.refs)})
	}
	if fd.offset+n > ino.size {
		n = ino.size - fd.offset
	}
	data := make([]byte, n)
	s.readData(ino, fd.offset, data)
	fd.offset += n
	return s.resp(proto.Response{Data: data, N: n, Offset: fd.offset, Refs: int32(fd.refs)})
}

func (s *Server) handleFdWrite(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	ino, ok := s.inodes.Get(fd.ino)
	if !ok {
		return s.errResp(fsapi.ESTALE)
	}
	off := fd.offset
	if fd.flags&fsapi.OAppend != 0 {
		off = ino.size
	}
	end := off + int64(len(req.Data))
	grew, errno := s.ensureCapacity(ino, end)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	s.writeData(ino, off, req.Data)
	if end > ino.size {
		ino.size = end
	}
	if grew {
		s.stageBlocks(ino)
	}
	// The offset is resolved before logging so append-mode replay writes
	// the same bytes to the same place.
	s.stageWrite(ino, off, req.Data)
	s.bumpVersion(ino)
	fd.offset = end
	return s.resp(proto.Response{N: int64(len(req.Data)), Offset: fd.offset, Size: ino.size, Refs: int32(fd.refs)})
}

func (s *Server) handleFdSeek(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	ino, ok := s.inodes.Get(fd.ino)
	if !ok {
		return s.errResp(fsapi.ESTALE)
	}
	var base int64
	switch req.Whence {
	case fsapi.SeekSet:
		base = 0
	case fsapi.SeekCur:
		base = fd.offset
	case fsapi.SeekEnd:
		base = ino.size
	default:
		return s.errResp(fsapi.EINVAL)
	}
	pos := base + req.Offset
	if pos < 0 {
		return s.errResp(fsapi.EINVAL)
	}
	fd.offset = pos
	return s.resp(proto.Response{Offset: fd.offset, Refs: int32(fd.refs)})
}

func (s *Server) handleFdGetInfo(req *proto.Request) *proto.Response {
	fd, errno := s.getSharedFd(req.Fd)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	return s.resp(proto.Response{Offset: fd.offset, Refs: int32(fd.refs)})
}
