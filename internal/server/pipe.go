package server

import (
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
)

// pipeBufferMax is the pipe capacity in bytes (matches Linux's default of
// 64 KiB; the exact value only affects when writers block).
const pipeBufferMax = 64 * 1024

// pipeState is the server-side state of one pipe. The pipe lives on the
// server that created it; both ends perform RPCs to that server. Blocking
// reads and writes are implemented by parking the request and replying when
// the state changes — the server's request loop never blocks.
type pipeState struct {
	buf     []byte
	readers int
	writers int

	waitReaders []parkedReq
	waitWriters []parkedReq
}

func (s *Server) getPipe(target proto.InodeID) (*inode, *pipeState, fsapi.Errno) {
	ino, errno := s.getInode(target)
	if errno != fsapi.OK {
		return nil, nil, errno
	}
	if ino.ftype != fsapi.TypePipe || ino.pipe == nil {
		return nil, nil, fsapi.EBADF
	}
	return ino, ino.pipe, fsapi.OK
}

func (s *Server) handlePipeCreate(req *proto.Request) *proto.Response {
	ino := s.allocInode(fsapi.TypePipe, fsapi.Mode(0o600), false)
	ino.pipe = &pipeState{readers: 1, writers: 1}
	// The pipe itself is volatile, but its inode *number* must never be
	// reissued after recovery while clients may still hold it; replay
	// uses the record only to advance the allocator.
	s.stageInode(ino)
	return s.resp(proto.Response{Ino: s.id(ino)})
}

func (s *Server) handlePipeRead(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	ino, p, errno := s.getPipe(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno), false
	}
	if len(p.buf) == 0 {
		if p.writers == 0 {
			// End of file: all write ends closed.
			return s.resp(proto.Response{N: 0}), false
		}
		p.waitReaders = append(p.waitReaders, parkedReq{req: req, env: env})
		return nil, true
	}
	n := int(req.Count)
	if n <= 0 || n > len(p.buf) {
		n = len(p.buf)
	}
	data := make([]byte, n)
	copy(data, p.buf[:n])
	p.buf = p.buf[n:]
	s.wakePipeWriters(ino, p)
	return s.resp(proto.Response{Data: data, N: int64(n)}), false
}

func (s *Server) handlePipeWrite(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	ino, p, errno := s.getPipe(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno), false
	}
	if p.readers == 0 {
		return s.errResp(fsapi.EPIPE), false
	}
	space := pipeBufferMax - len(p.buf)
	if space <= 0 {
		p.waitWriters = append(p.waitWriters, parkedReq{req: req, env: env})
		return nil, true
	}
	n := len(req.Data)
	if n > space {
		n = space
	}
	p.buf = append(p.buf, req.Data[:n]...)
	s.wakePipeReaders(ino, p)
	return s.resp(proto.Response{N: int64(n)}), false
}

func (s *Server) handlePipeIncRef(req *proto.Request, writeEnd bool) *proto.Response {
	_, p, errno := s.getPipe(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if writeEnd {
		p.writers++
	} else {
		p.readers++
	}
	return s.resp(proto.Response{})
}

func (s *Server) handlePipeClose(req *proto.Request, writeEnd bool) *proto.Response {
	ino, p, errno := s.getPipe(req.Target)
	if errno != fsapi.OK {
		return s.errResp(errno)
	}
	if writeEnd {
		if p.writers > 0 {
			p.writers--
		}
		if p.writers == 0 {
			// Wake blocked readers: they observe EOF (or drain what
			// remains in the buffer).
			s.wakePipeReaders(ino, p)
		}
	} else {
		if p.readers > 0 {
			p.readers--
		}
		if p.readers == 0 {
			// Wake blocked writers: they observe EPIPE.
			s.wakePipeWriters(ino, p)
		}
	}
	if p.readers == 0 && p.writers == 0 {
		ino.nlink = 0
		ino.pipe = nil
		s.maybeReap(ino)
	}
	return s.resp(proto.Response{})
}

// wakePipeReaders re-dispatches parked read requests after data arrived or
// the last writer closed.
func (s *Server) wakePipeReaders(_ *inode, p *pipeState) {
	waiting := p.waitReaders
	p.waitReaders = nil
	for _, w := range waiting {
		resp, parked := s.handlePipeRead(w.req, w.env)
		if parked {
			continue
		}
		s.reply(w.env, resp)
		s.putReq(w.req)
	}
}

// wakePipeWriters re-dispatches parked write requests after space appeared
// or the last reader closed.
func (s *Server) wakePipeWriters(_ *inode, p *pipeState) {
	waiting := p.waitWriters
	p.waitWriters = nil
	for _, w := range waiting {
		resp, parked := s.handlePipeWrite(w.req, w.env)
		if parked {
			continue
		}
		s.reply(w.env, resp)
		s.putReq(w.req)
	}
}
