package client

import (
	"repro/internal/fsapi"
	"repro/internal/proto"
)

// shareFD migrates a descriptor's offset to the file server so that another
// process can share it (§3.4). Dirty data is written back first so reads
// and writes through the server observe the client's latest contents.
func (c *Client) shareFD(of *openFile) error {
	if of.pipe || of.srvFd != proto.NilFd {
		return nil
	}
	c.writebackFile(of)
	// A written-through descriptor coalesces its size update and version
	// bump into the FD_SHARE message (§3.6.3 style), saving the separate
	// SET_SIZE round trip.
	req := &proto.Request{
		Op:     proto.OpFdShare,
		Target: of.ino,
		Offset: of.offset,
		Flags:  int32(of.flags),
	}
	if of.wrote {
		req.Size = of.size
		req.Dirty = true
	}
	resp, err := c.rpcOK(int(of.ino.Server), req)
	if err != nil {
		return err
	}
	if of.wrote {
		of.expectVersion(resp.Version, true)
		c.settleVersion(of)
		of.wrote = false
	}
	of.srvFd = resp.Fd
	return nil
}

// incRef tells the server one more process now references the descriptor
// (or, for pipes, the given end).
func (c *Client) incRef(of *openFile) error {
	if of.pipe {
		op := proto.OpPipeIncReader
		if of.pipeWrite {
			op = proto.OpPipeIncWriter
		}
		_, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: op, Target: of.ino})
		return err
	}
	_, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpFdIncRef, Fd: of.srvFd, Target: of.ino})
	return err
}

// CloneForFork duplicates this client library for a child process created by
// fork(). Every open descriptor becomes shared: regular-file offsets migrate
// to their file servers, pipe end reference counts are incremented, and the
// child receives a descriptor table with the same numbering (including dup
// relationships). Fork in Hare always runs on the caller's core; exec is the
// point at which a process may move (§3.5).
func (c *Client) CloneForFork(childCore int) (fsapi.Client, error) {
	defer c.releaseResps(c.respMark())
	child := c.NewPeer(childCore)
	child.cwd, child.writesCreates = c.cwd, c.writesCreates
	child.clock.AdvanceTo(c.clock.Now())

	// Preserve dup relationships: descriptors sharing one description in
	// the parent share one description in the child.
	copies := make(map[*openFile]*openFile)
	fds := c.OpenFDs()
	for _, fd := range fds {
		of := c.fds[fd]
		childOf, done := copies[of]
		if !done {
			if err := c.shareFD(of); err != nil {
				return nil, err
			}
			if err := c.incRef(of); err != nil {
				return nil, err
			}
			childOf = &openFile{
				ino:       of.ino,
				ftype:     of.ftype,
				flags:     of.flags,
				srvFd:     of.srvFd,
				pipe:      of.pipe,
				pipeWrite: of.pipeWrite,
			}
			copies[of] = childOf
		}
		childOf.localRefs++
		child.setFD(fd, childOf)
		if fd >= child.nextFD {
			child.nextFD = fd + 1
		}
	}
	return child, nil
}

// NewPeer creates a fresh client library (empty descriptor table) on the
// given core, on an endpoint of its own, sharing the deployment-wide
// configuration.
func (c *Client) NewPeer(core int) *Client {
	cfg := c.cfg
	cfg.Core = core
	if cfg.CacheForCore != nil {
		cfg.Cache = cfg.CacheForCore(core)
	}
	return New(cfg)
}

// ExportFds prepares this process's descriptor table for transfer to a
// process exec'd on another core. Each descriptor is shared with its server
// and its reference count incremented on behalf of the new process; the
// caller (which turns into a proxy) later closes its own copies normally.
// The specs come in descriptor order; an empty table exports nil.
func (c *Client) ExportFds() ([]proto.FdSpec, error) {
	defer c.releaseResps(c.respMark())
	fds := c.OpenFDs()
	if len(fds) == 0 {
		return nil, nil
	}
	specs := make([]proto.FdSpec, 0, len(fds))
	for _, fd := range fds {
		of := c.fds[fd]
		if err := c.shareFD(of); err != nil {
			return nil, err
		}
		if err := c.incRef(of); err != nil {
			return nil, err
		}
		specs = append(specs, proto.FdSpec{
			Fd:    int32(fd),
			Ino:   of.ino,
			SrvFd: of.srvFd,
			Flags: int32(of.flags),
			Pipe:  of.pipe,
			Write: of.pipeWrite,
		})
	}
	return specs, nil
}

// ImportFds installs a descriptor table received in an exec request.
func (c *Client) ImportFds(specs []proto.FdSpec) {
	for _, spec := range specs {
		of := &openFile{
			ino:       spec.Ino,
			flags:     int(spec.Flags),
			srvFd:     spec.SrvFd,
			pipe:      spec.Pipe,
			pipeWrite: spec.Write,
			localRefs: 1,
		}
		if spec.Pipe {
			of.ftype = fsapi.TypePipe
		} else {
			of.ftype = fsapi.TypeRegular
		}
		c.setFD(fsapi.FD(spec.Fd), of)
		if fsapi.FD(spec.Fd) >= c.nextFD {
			c.nextFD = fsapi.FD(spec.Fd) + 1
		}
	}
}

// SetCwd sets the working directory without validation; used when
// reconstructing a process image from an exec request whose directory was
// already validated by the caller.
func (c *Client) SetCwd(cwd string) {
	if cwd == "" {
		cwd = "/"
	}
	c.cwd = cwd
}
