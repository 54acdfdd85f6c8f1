package client

import (
	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Pipe creates a pipe on a nearby file server and returns the read and write
// descriptors. Both ends perform RPCs to the pipe's server, so a pipe shared
// between processes on different cores behaves like the paper's shared pipe
// (used, for example, by make's jobserver).
func (c *Client) Pipe() (_, _ fsapi.FD, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("pipe"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	srv := c.near[0]
	if !c.cfg.Options.CreationAffinity {
		srv = int(c.cfg.Root.Server)
	}
	resp, err := c.rpcOK(srv, &proto.Request{Op: proto.OpPipeCreate})
	if err != nil {
		return -1, -1, err
	}
	rof := &openFile{ino: resp.Ino, ftype: fsapi.TypePipe, pipe: true, pipeWrite: false, flags: fsapi.ORdOnly}
	wof := &openFile{ino: resp.Ino, ftype: fsapi.TypePipe, pipe: true, pipeWrite: true, flags: fsapi.OWrOnly}
	rfd := c.allocFD(rof)
	wfd := c.allocFD(wof)
	return rfd, wfd, nil
}

// pipeRead reads from a pipe end; it blocks (the RPC parks at the server)
// until data or EOF is available.
func (c *Client) pipeRead(of *openFile, p []byte) (int, error) {
	if of.pipeWrite {
		return 0, fsapi.EBADF
	}
	resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{
		Op:     proto.OpPipeRead,
		Target: of.ino,
		Count:  int32(len(p)),
	})
	if err != nil {
		return 0, err
	}
	return copy(p, resp.Data), nil
}

// pipeWriteAll writes the whole buffer to a pipe, looping on partial writes
// (the server accepts at most the free buffer space per RPC).
func (c *Client) pipeWriteAll(of *openFile, p []byte) (int, error) {
	if !of.pipeWrite {
		return 0, fsapi.EBADF
	}
	written := 0
	for written < len(p) {
		resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{
			Op:     proto.OpPipeWrite,
			Target: of.ino,
			Data:   p[written:],
		})
		if err != nil {
			if written > 0 && err == fsapi.EPIPE {
				return written, err
			}
			return written, err
		}
		if resp.N <= 0 {
			break
		}
		written += int(resp.N)
	}
	return written, nil
}

// sharedRead reads through the file server at the shared offset (§3.4). If
// the reply shows this client is the last holder, the descriptor reverts to
// local state.
func (c *Client) sharedRead(of *openFile, p []byte) (int, error) {
	resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{
		Op:     proto.OpFdRead,
		Fd:     of.srvFd,
		Target: of.ino,
		Count:  int32(len(p)),
	})
	if err != nil {
		return 0, err
	}
	n := copy(p, resp.Data)
	c.maybeUnshare(of, resp)
	return n, nil
}

// sharedWrite writes through the file server at the shared offset.
func (c *Client) sharedWrite(of *openFile, p []byte) (int, error) {
	c.dropReadaheadsFor(of.ino)
	resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{
		Op:     proto.OpFdWrite,
		Fd:     of.srvFd,
		Target: of.ino,
		Data:   p,
	})
	if err != nil {
		return 0, err
	}
	c.maybeUnshare(of, resp)
	return int(resp.N), nil
}

// maybeUnshare reverts a shared descriptor to local state when the server
// reports that this client holds the only remaining reference (§3.4).
func (c *Client) maybeUnshare(of *openFile, last *proto.Response) {
	if last.Refs != 1 || of.srvFd == proto.NilFd {
		return
	}
	resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpFdUnshare, Fd: of.srvFd, Target: of.ino})
	if err != nil {
		return // still shared; harmless
	}
	blocksResp, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpGetBlocks, Target: of.ino})
	if err != nil {
		return
	}
	of.srvFd = proto.NilFd
	of.offset = resp.Offset
	of.size = blocksResp.Size
	refreshBlocks(of, blocksResp.Extents)
	// While the descriptor was shared, all writes went through the server
	// straight to DRAM, so any private-cache copies of the file's blocks are
	// suspect: drop them before resuming direct access, and restart the
	// version window at the freshly consistent point.
	if c.cfg.Options.DirectAccess && of.blocks.Len() > 0 {
		dropped := c.cfg.Cache.InvalidateExtents(of.blocks.Runs())
		c.stats.invBlocks.Add(uint64(dropped))
		c.charge(sim.Cycles(dropped) * c.cfg.Machine.Cost.CachePerLine)
	}
	of.verKnown = blocksResp.Version
	of.verLost = false
	c.keepVersion(of, blocksResp.Version)
}
