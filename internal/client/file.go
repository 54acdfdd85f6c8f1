package client

import (
	"repro/internal/fsapi"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Open opens (and optionally creates) a file and returns a descriptor.
func (c *Client) Open(path string, flags int, mode fsapi.Mode) (_ fsapi.FD, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("open"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	abs := c.absPath(path)

	if flags&fsapi.OCreate != 0 {
		return c.openCreate(abs, flags, mode)
	}
	resp, err := c.opOnPath(abs, &proto.Request{Op: proto.OpLookup},
		&proto.Request{Op: proto.OpOpenInode, Flags: int32(flags)})
	if err != nil {
		return -1, err
	}
	return c.opened(resp, flags), nil
}

// openCreate implements open() with O_CREAT: it creates the inode and
// directory entry (coalescing the two RPCs when they land on the same
// server) or falls back to opening an existing file.
//
// Once this process has shown that it writes what it creates, the file's first
// block rides with the create as EXTEND(PrevInode): creation affinity put the
// block allocator on the server the create already talks to, so the write
// that follows finds its block in hand and sends nothing (DESIGN.md §7). It
// applies where extend-ahead does; with pipelining off the chain would be two
// messages, so it is not built.
func (c *Client) openCreate(abs string, flags int, mode fsapi.Mode) (fsapi.FD, error) {
	parent, parentDist, name, err := c.resolveParent(abs)
	if err != nil {
		return -1, err
	}
	// The EXTEND that rides behind the create in the create's own message —
	// room for the first byte — when ext is 1. The chains below are literals
	// cut to length so that no request of theirs becomes a heap object.
	extend := proto.Request{Op: proto.OpExtend, Target: proto.PrevInode, Size: 1}
	ext := 0
	if c.writesCreates && c.cfg.Options.DirectAccess && c.cfg.Options.Pipelining {
		ext = 1
	}
	var buf [3]*proto.Response

	// Coalesced path: one message creates the inode, adds the directory
	// entry, and opens a descriptor (§3.6.3).
	create := &proto.Request{
		Op:        proto.OpCreateCoalesced,
		Dir:       parent,
		Name:      name,
		Mode:      mode,
		Ftype:     fsapi.TypeRegular,
		Exclusive: flags&fsapi.OExcl != 0,
		WantOpen:  true,
	}
	resps, rerr := c.coalescedCreate(parent, parentDist, name, []*proto.Request{create, &extend}[:1+ext], buf[:0])
	if rerr != nil {
		return -1, rerr
	}
	if resps != nil {
		switch resp := resps[0]; resp.Err {
		case fsapi.OK:
			c.cacheEntry(parent, name, dcacheEnt{ino: resp.Ino, ftype: resp.Ftype, dist: resp.Dist})
			return c.created(resps, flags), nil
		case fsapi.EEXIST:
			if flags&fsapi.OExcl != 0 {
				return -1, fsapi.EEXIST
			}
			c.cacheEntry(parent, name, dcacheEnt{ino: resp.Ino, ftype: resp.Ftype, dist: resp.Dist})
			return c.openExisting(resp.Ino, resp.Ftype, flags)
		default:
			return -1, resp.Err
		}
	}

	// Creation affinity placed the inode on a closer server than the entry
	// server: create and open the inode there in one message, then add the
	// entry.
	entrySrv, _ := c.routeEntry(parent, parentDist, name)
	inodeSrv := c.chooseInodeServer(entrySrv, fsapi.TypeRegular, parentDist)
	mknod := &proto.Request{Op: proto.OpMknod, Ftype: fsapi.TypeRegular, Mode: mode}
	open := &proto.Request{Op: proto.OpOpenInode, Target: proto.PrevInode, Flags: int32(flags)}
	if resps, err = c.rpcBatch(inodeSrv, true, []*proto.Request{mknod, open, &extend}[:2+ext], buf[:0]); err != nil {
		return -1, err
	}
	if resps[0].Err != fsapi.OK {
		return -1, resps[0].Err
	}
	ino := resps[0].Ino
	// added is the answer of the step that decides: the OPEN's when it
	// failed, ADD_MAP's otherwise.
	added := resps[1]
	if added.Err == fsapi.OK {
		added, err = c.routedEntryRPC(parent, parentDist, name, &proto.Request{
			Op:     proto.OpAddMap,
			Dir:    parent,
			Name:   name,
			Target: ino,
			Ftype:  fsapi.TypeRegular,
		})
		if err == nil && added.Err == fsapi.OK {
			c.cacheEntry(parent, name, dcacheEnt{ino: ino, ftype: fsapi.TypeRegular, dist: false})
			return c.created(resps[1:], flags), nil
		}
	}
	// Lost a race, the file simply existed, or the entry could not be added:
	// close and discard the orphan inode, a block it was given with it, in
	// one message.
	_, _ = c.rpcBatch(inodeSrv, true, []*proto.Request{
		{Op: proto.OpCloseInode, Target: ino}, {Op: proto.OpUnlinkInode, Target: ino}}, nil)
	if err != nil {
		return -1, err
	}
	if added.Err != fsapi.EEXIST || flags&fsapi.OExcl != 0 {
		return -1, added.Err
	}
	c.cacheEntry(parent, name, dcacheEnt{ino: added.Ino, ftype: added.Ftype, dist: added.Dist})
	return c.openExisting(added.Ino, added.Ftype, flags)
}

// created turns the reply that opened a new file — CREATE_COALESCED's, or the
// split path's OPEN_INODE — into a descriptor; resps[1], when there is one,
// answers the EXTEND that rode along. One that failed (ENOSPC) leaves the
// create standing and the write to ask again.
func (c *Client) created(resps []*proto.Response, flags int) fsapi.FD {
	c.noteVersion(resps[0].Ino, resps[0].Version)
	of := c.fileFromOpen(resps[0], flags)
	of.created = true
	if len(resps) > 1 && resps[1].Err == fsapi.OK {
		c.growBlocks(of, resps[1], true)
		of.firstBlock = true
		c.stats.firstBlks.Add(1)
	}
	return c.allocFD(of)
}

// openExisting opens an inode whose entry a create found in its way.
func (c *Client) openExisting(ino proto.InodeID, ftype fsapi.FileType, flags int) (fsapi.FD, error) {
	if ftype == fsapi.TypeDir && flags&fsapi.OAccMode != fsapi.ORdOnly {
		return -1, fsapi.EISDIR
	}
	resp, err := c.rpcOK(int(ino.Server), &proto.Request{
		Op:     proto.OpOpenInode,
		Target: ino,
		Flags:  int32(flags),
	})
	if err != nil {
		return -1, err
	}
	return c.opened(resp, flags), nil
}

// opened turns a successful OPEN reply into a descriptor.
func (c *Client) opened(resp *proto.Response, flags int) fsapi.FD {
	of := c.fileFromOpen(resp, flags)
	// Close-to-open consistency: drop any stale private-cache copies of
	// this file's blocks so reads observe data written back by other cores
	// since the last close (§3.2). With the data path enabled, an OPEN reply
	// whose data version matches the one recorded at this client's last
	// consistency point proves nothing changed in DRAM since — the cached
	// copies are byte-identical and the invalidation is skipped outright
	// (DESIGN.md §8).
	if c.cfg.Options.DirectAccess && of.blocks.Len() > 0 {
		if v, ok := c.vcache.Get(of.ino); c.cfg.Options.DataPath && ok && v == resp.Version {
			c.cfg.Cache.NoteVersionSkip(of.blocks.Runs())
			c.stats.verSkips.Add(1)
		} else {
			dropped := c.cfg.Cache.InvalidateExtents(of.blocks.Runs())
			c.stats.invBlocks.Add(uint64(dropped))
			c.charge(sim.Cycles(dropped) * c.cfg.Machine.Cost.CachePerLine)
			c.noteVersion(of.ino, resp.Version)
		}
	}
	if flags&fsapi.OAppend != 0 {
		of.offset = of.size
	}
	return c.allocFD(of)
}

// fileFromOpen builds an openFile from an OPEN/CREATE response.
func (c *Client) fileFromOpen(resp *proto.Response, flags int) *openFile {
	of := c.newOpenFile()
	of.ino, of.ftype, of.flags, of.size, of.verKnown = resp.Ino, resp.Ftype, flags, resp.Size, resp.Version
	refreshBlocks(of, resp.Extents)
	return of
}

// refreshBlocks replaces the descriptor's block map with the extent-coded
// wire form (shared by open, GET_BLOCKS, EXTEND, and TRUNCATE responses).
func refreshBlocks(of *openFile, exts []proto.Extent) {
	of.blocks.Reset()
	for _, e := range exts {
		of.blocks.AppendRun(ncc.Extent{Start: ncc.BlockID(e.Start), Count: e.Count})
	}
}

// Close closes a descriptor, writing back dirty blocks and releasing the
// server-side reference when this is the last descriptor for the
// description.
func (c *Client) Close(fd fsapi.FD) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("close"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return err
	}
	delete(c.fds, fd)
	of.localRefs--
	if of.localRefs > 0 {
		return nil
	}
	var req proto.Request
	c.closeRequest(of, &req)
	if req.Op == proto.OpCloseInode && !req.Dirty && c.cfg.Options.Pipelining {
		// A clean close publishes nothing — no size, no version — so no other
		// process can tell when it lands: it waits for this client's next
		// message to the inode's server (async.go). One waits at a time.
		c.flushClose()
		c.pend = of
		return nil
	}
	resp, err := c.rpcOK(int(of.ino.Server), &req)
	if err == nil && req.Op == proto.OpCloseInode {
		// A dirty close just wrote our data back and moved the version: the
		// cache IS the new contents. A clean close whose version still
		// matches proves nothing changed. Either way an intact window lets a
		// reopen at this version skip invalidation; a lost window (someone
		// else mutated the file while we held it open) evicts the entry.
		of.expectVersion(resp.Version, req.Dirty)
		c.settleVersion(of)
	}
	c.freeOpenFile(of)
	return err
}

// closeRequest fills req with the release RPC for a description whose last
// local reference is gone: the pipe-end close, the shared-descriptor deref,
// or — after flushing dirty blocks — the inode close with the size update
// coalesced in (§3.6.3). Shared by Close and the pipelined CloseAll so the
// close semantics have one source of truth.
//
// A description closed with the first block its create brought along still
// unwritten corrects the predictor. The block stays with the inode, as
// extend-ahead's tail does, and goes at unlink: what this description did
// says nothing of what another open of the same file wrote into it.
func (c *Client) closeRequest(of *openFile, req *proto.Request) {
	of.dropReadahead()
	switch {
	case of.pipe:
		op := proto.OpPipeCloseRead
		if of.pipeWrite {
			op = proto.OpPipeCloseWrite
		}
		*req = proto.Request{Op: op, Target: of.ino}
	case of.srvFd != proto.NilFd:
		*req = proto.Request{Op: proto.OpFdDecRef, Fd: of.srvFd, Target: of.ino}
	default:
		c.writebackFile(of)
		*req = proto.Request{Op: proto.OpCloseInode, Target: of.ino}
		if of.wrote {
			// Coalesce the size update with the close (§3.6.3), and tell the
			// server the data changed so it moves the inode's version.
			req.Size = of.size
			req.Dirty = true
		} else if of.firstBlock {
			c.writesCreates = false
			c.stats.firstMiss.Add(1)
		}
	}
}

// writebackFile flushes this file's dirty private-cache data to DRAM. The
// dirty set is normalized (sorted, overlaps merged) first, so blocks that
// several writes touched are neither flushed nor charged twice. With the
// data path enabled only the 64-byte lines actually written move; otherwise
// every dirty block is flushed in full (the paper's behavior).
func (c *Client) writebackFile(of *openFile) {
	if !c.cfg.Options.DirectAccess || len(of.dirty) == 0 {
		return
	}
	exts := ncc.NormalizeExtents(of.dirty)
	start := c.clock.Now()
	flushed, lines := c.cfg.Cache.WritebackExtents(exts, c.cfg.Options.DataPath)
	c.stats.wbBlocks.Add(uint64(flushed))
	c.charge(sim.LineCost(c.cfg.Machine.Cost.DRAMPerLine, lines*ncc.LineSize))
	if c.cur != nil {
		// Surface the line movement under the op that paid for it; Idx
		// carries the 64-byte line count so a slow close is attributable
		// to the data it flushed.
		c.charge(c.cfg.Machine.Cost.TraceSpan)
		c.tr.Record(trace.Span{
			Trace: c.cur.Trace, ID: c.tem.Next(), Parent: c.cur.ID,
			Kind: trace.KindWriteback, Name: "writeback", Where: c.cfg.ID,
			Start: start, End: c.clock.Now(), Idx: int32(lines),
		})
	}
	of.dirty = of.dirty[:0]
	of.dirtyNorm = 0
}

// Fsync forces dirty data for the descriptor back to the shared DRAM and
// updates the server's view of the file size.
func (c *Client) Fsync(fd fsapi.FD) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("fsync"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return err
	}
	if of.pipe {
		return fsapi.EINVAL
	}
	if of.srvFd != proto.NilFd {
		return nil // all writes already went through the server
	}
	c.writebackFile(of)
	if of.wrote {
		resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpSetSize, Target: of.ino, Size: of.size})
		if err != nil {
			return err
		}
		of.expectVersion(resp.Version, true)
		c.settleVersion(of)
		// The server has size and version: a close with nothing written since
		// is a clean one. The first block was written, not missed.
		of.wrote, of.firstBlock = false, false
	}
	return nil
}

// Read reads from the descriptor at its current offset.
func (c *Client) Read(fd fsapi.FD, p []byte) (_ int, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("read"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	switch {
	case of.pipe:
		return c.pipeRead(of, p)
	case of.srvFd != proto.NilFd:
		return c.sharedRead(of, p)
	default:
		if of.flags&fsapi.OAccMode == fsapi.OWrOnly {
			return 0, fsapi.EBADF
		}
		n, err := c.readAt(of, of.offset, p, true)
		of.offset += int64(n)
		return n, err
	}
}

// Pread reads at an explicit offset without moving the descriptor offset.
func (c *Client) Pread(fd fsapi.FD, p []byte, off int64) (_ int, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("pread"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		return 0, fsapi.ESPIPE
	}
	if of.srvFd != proto.NilFd {
		// Shared descriptors read through the server; pread does not
		// move the offset so a plain READ_AT suffices.
		resp, rerr := c.rpcOK(int(of.ino.Server), &proto.Request{
			Op: proto.OpReadAt, Target: of.ino, Offset: off, Count: int32(len(p)),
		})
		if rerr != nil {
			return 0, rerr
		}
		return copy(p, resp.Data), nil
	}
	return c.readAt(of, off, p, false)
}

// Write writes at the descriptor's current offset.
func (c *Client) Write(fd fsapi.FD, p []byte) (_ int, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("write"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	switch {
	case of.pipe:
		return c.pipeWriteAll(of, p)
	case of.srvFd != proto.NilFd:
		return c.sharedWrite(of, p)
	default:
		if of.flags&fsapi.OAccMode == fsapi.ORdOnly {
			return 0, fsapi.EBADF
		}
		off := of.offset
		if of.flags&fsapi.OAppend != 0 {
			off = of.size
		}
		n, err := c.writeAt(of, off, p)
		of.offset = off + int64(n)
		return n, err
	}
}

// Pwrite writes at an explicit offset without moving the descriptor offset.
func (c *Client) Pwrite(fd fsapi.FD, p []byte, off int64) (_ int, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("pwrite"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		return 0, fsapi.ESPIPE
	}
	if of.srvFd != proto.NilFd {
		c.dropReadaheadsFor(of.ino)
		resp, rerr := c.rpcOK(int(of.ino.Server), &proto.Request{
			Op: proto.OpWriteAt, Target: of.ino, Offset: off, Data: p,
		})
		if rerr != nil {
			return 0, rerr
		}
		return int(resp.N), nil
	}
	return c.writeAt(of, off, p)
}

// readAt reads file data for a locally tracked descriptor. With direct
// access the client reads the shared buffer cache through its private cache;
// otherwise it asks the server to read on its behalf — and, for sequential
// readers with pipelining on, keeps the next chunk's READ_AT in flight ahead
// of the cursor so the reply has (partially) propagated by the time it is
// needed (DESIGN.md §7).
func (c *Client) readAt(of *openFile, off int64, p []byte, sequential bool) (int, error) {
	if off >= of.size {
		return 0, nil
	}
	n := int64(len(p))
	if off+n > of.size {
		n = of.size - off
	}
	if !c.cfg.Options.DirectAccess {
		data, ok := c.takeReadahead(of, off, n)
		if !ok {
			resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{
				Op: proto.OpReadAt, Target: of.ino, Offset: off, Count: int32(n),
			})
			if err != nil {
				return 0, err
			}
			data = resp.Data
		}
		if sequential {
			c.issueReadahead(of, off+n, len(p))
		}
		return copy(p, data), nil
	}
	if err := c.ensureBlocks(of, off+n); err != nil {
		return 0, err
	}
	return c.copyBlocks(of, off, p[:n], false), nil
}

// takeReadahead consumes the descriptor's in-flight readahead when it covers
// exactly the requested range; any other pending readahead is dropped
// unharvested (a mispredicted chunk costs its message, nothing else).
func (c *Client) takeReadahead(of *openFile, off, n int64) ([]byte, bool) {
	if of.raFut == nil {
		return nil, false
	}
	if of.raOff != off || int64(of.raN) < n {
		of.raFut = nil
		return nil, false
	}
	env, err := of.raFut.Await()
	of.raFut = nil
	if err != nil {
		return nil, false
	}
	c.clock.AdvanceTo(env.ArriveAt)
	c.charge(c.cfg.Machine.Cost.MsgRecv)
	resp := c.newResp()
	derr := proto.UnmarshalResponseInto(resp, env.Payload)
	c.ep.PutBuf(env.Payload)
	if derr != nil || resp.Err != fsapi.OK {
		return nil, false
	}
	return resp.Data, true
}

// issueReadahead speculatively requests the next chunk of a sequential
// server-mediated read stream. It is a no-op with pipelining off, with a
// readahead already pending, or at end of file.
func (c *Client) issueReadahead(of *openFile, off int64, n int) {
	if !c.cfg.Options.Pipelining || of.raFut != nil || n <= 0 || off >= of.size {
		return
	}
	if off+int64(n) > of.size {
		n = int(of.size - off)
	}
	fut, err := c.sendAsync(int(of.ino.Server), &proto.Request{
		Op: proto.OpReadAt, Target: of.ino, Offset: off, Count: int32(n),
	})
	if err != nil {
		return
	}
	of.raFut, of.raOff, of.raN = fut, off, n
	c.stats.readaheads.Add(1)
}

// dropReadahead abandons any in-flight readahead (the data it would return
// is about to become stale, or the descriptor is going away).
func (of *openFile) dropReadahead() { of.raFut = nil }

// dropReadaheadsFor invalidates the in-flight readahead of every descriptor
// this process holds on the given inode: a write through any descriptor
// makes their speculative chunks stale, and same-process read-after-write
// must hold regardless of which descriptor did the writing.
func (c *Client) dropReadaheadsFor(ino proto.InodeID) {
	for _, of := range c.fds {
		if of.ino == ino {
			of.dropReadahead()
		}
	}
}

// writeAt writes file data for a locally tracked descriptor.
func (c *Client) writeAt(of *openFile, off int64, p []byte) (int, error) {
	end := off + int64(len(p))
	if !c.cfg.Options.DirectAccess {
		// The write may overlap chunks already requested ahead of the
		// cursor — by this descriptor or by any other descriptor this
		// process holds on the file; their speculative data would be stale.
		c.dropReadaheadsFor(of.ino)
		resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{
			Op: proto.OpWriteAt, Target: of.ino, Offset: off, Data: p,
		})
		if err != nil {
			return 0, err
		}
		if end > of.size {
			of.size = end
		}
		of.wrote = true
		return int(resp.N), nil
	}
	if err := c.extendTo(of, end); err != nil {
		return 0, err
	}
	n := c.copyBlocks(of, off, p, true)
	if off+int64(n) > of.size {
		of.size = off + int64(n)
	}
	of.wrote = true
	return n, nil
}

// ensureBlocks refreshes the block list if the requested range extends past
// the blocks the client knows about (another process may have extended the
// file before our open; normally open returned the full list already).
func (c *Client) ensureBlocks(of *openFile, end int64) error {
	bs := int64(c.cfg.DRAM.BlockSize())
	if int64(of.blocks.Len())*bs >= end {
		return nil
	}
	resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpGetBlocks, Target: of.ino})
	if err != nil {
		return err
	}
	// GET_BLOCKS never bumps; a moved version means another client extended
	// or wrote the file while we held it open.
	c.growBlocks(of, resp, false)
	return nil
}

// growBlocks installs the block map an EXTEND (bumps: it moves the version
// exactly when the map grew) or GET_BLOCKS reply carries.
func (c *Client) growBlocks(of *openFile, resp *proto.Response, bumps bool) {
	before := of.blocks.Len()
	refreshBlocks(of, resp.Extents)
	c.invalidateTail(of, before)
	of.expectVersion(resp.Version, bumps && of.blocks.Len() > before)
}

// extendTo asks the file server to allocate blocks so the file can hold end
// bytes, updating the client's block list. With pipelining on, the request
// allocates ahead of the cursor — doubling the current allocation — so a
// sequential writer issues O(log n) EXTEND RPCs instead of one per block
// boundary; the logical size is still set by CLOSE/SET_SIZE, so the
// over-allocation is invisible to stat and is reclaimed with the inode.
func (c *Client) extendTo(of *openFile, end int64) error {
	bs := int64(c.cfg.DRAM.BlockSize())
	if int64(of.blocks.Len())*bs >= end {
		return nil
	}
	// A created file asking for its first block: this process writes what
	// it creates, and its next create brings the block along (openCreate).
	if of.created && of.blocks.Len() == 0 {
		c.writesCreates = true
	}
	want := end
	if c.cfg.Options.Pipelining {
		if ahead := 2 * int64(of.blocks.Len()) * bs; ahead > want {
			want = ahead
		}
	}
	resp, err := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpExtend, Target: of.ino, Size: want})
	if err != nil && want > end && fsapi.IsErrno(err, fsapi.ENOSPC) {
		// The speculative tail did not fit; retry with exactly what the
		// write needs.
		resp, err = c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpExtend, Target: of.ino, Size: end})
	}
	if err != nil {
		return err
	}
	c.growBlocks(of, resp, true)
	return nil
}

// invalidateTail drops any stale cached copies of blocks the descriptor just
// learned about (an EXTEND or GET_BLOCKS grew its map). A newly allocated
// block may have had a previous life in another file on this core; a
// leftover clean copy would shadow the zeroed (or remotely written) DRAM
// contents.
func (c *Client) invalidateTail(of *openFile, from int) {
	if !c.cfg.Options.DirectAccess || from >= of.blocks.Len() {
		return
	}
	head, rest := of.blocks.TailRuns(from)
	dropped := c.cfg.Cache.InvalidateExtents([]ncc.Extent{head})
	if len(rest) > 0 {
		dropped += c.cfg.Cache.InvalidateExtents(rest)
	}
	if dropped > 0 {
		c.stats.invBlocks.Add(uint64(dropped))
		c.charge(sim.Cycles(dropped) * c.cfg.Machine.Cost.CachePerLine)
	}
}

// copyBlocks moves data between the caller's buffer and the buffer cache via
// the core's private cache, charging per-line costs for hits and misses.
func (c *Client) copyBlocks(of *openFile, off int64, p []byte, write bool) int {
	bs := int64(c.cfg.DRAM.BlockSize())
	cost := &c.cfg.Machine.Cost
	moved := 0
	for moved < len(p) {
		pos := off + int64(moved)
		bi := int(pos / bs)
		bo := int(pos % bs)
		if bi >= of.blocks.Len() {
			break
		}
		block := of.blocks.At(bi)
		var n int
		var hit bool
		if write {
			n, hit = c.cfg.Cache.Write(block, bo, p[moved:])
			of.addDirty(block)
		} else {
			n, hit = c.cfg.Cache.Read(block, bo, p[moved:])
		}
		if n == 0 {
			break
		}
		per := cost.DRAMPerLine
		if hit {
			per = cost.CachePerLine
		}
		c.charge(sim.LineCost(per, n))
		moved += n
	}
	return moved
}

// addDirty records block b in the descriptor's dirty set. Sequential writes
// extend the last run in place and rewrites of the run's tail block are
// absorbed; anything else appends a new run, and writebackFile's
// normalization merges whatever overlaps remain. Writes that ping-pong
// between non-adjacent blocks would grow the list one run per write, so it
// is re-normalized in place whenever it gets long — bounding it at the
// file's true fragmentation plus a constant.
func (of *openFile) addDirty(b ncc.BlockID) {
	if n := len(of.dirty); n > 0 {
		last := &of.dirty[n-1]
		if last.End() == b {
			last.Count++
			return
		}
		if b >= last.Start && b < last.End() {
			return
		}
		if n >= 64 && n >= 2*of.dirtyNorm {
			of.dirty = ncc.NormalizeExtents(of.dirty)
			of.dirtyNorm = len(of.dirty)
		}
	}
	of.dirty = append(of.dirty, ncc.Extent{Start: b, Count: 1})
}

// Seek repositions a descriptor offset.
func (c *Client) Seek(fd fsapi.FD, off int64, whence int) (_ int64, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("seek"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		return 0, fsapi.ESPIPE
	}
	if of.srvFd != proto.NilFd {
		resp, rerr := c.rpcOK(int(of.ino.Server), &proto.Request{
			Op: proto.OpFdSeek, Fd: of.srvFd, Target: of.ino, Offset: off, Whence: int32(whence),
		})
		if rerr != nil {
			return 0, rerr
		}
		return resp.Offset, nil
	}
	var base int64
	switch whence {
	case fsapi.SeekSet:
		base = 0
	case fsapi.SeekCur:
		base = of.offset
	case fsapi.SeekEnd:
		base = of.size
	default:
		return 0, fsapi.EINVAL
	}
	pos := base + off
	if pos < 0 {
		return 0, fsapi.EINVAL
	}
	of.offset = pos
	return pos, nil
}

// Ftruncate truncates the open file to the given size.
func (c *Client) Ftruncate(fd fsapi.FD, size int64) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("ftruncate"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return err
	}
	if of.pipe || of.ftype != fsapi.TypeRegular {
		return fsapi.EINVAL
	}
	// Dirty blocks beyond the new size must not be written back later over
	// reused blocks; flush state first.
	c.writebackFile(of)
	c.dropReadaheadsFor(of.ino)
	resp, rerr := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpTruncate, Target: of.ino, Size: size})
	if rerr != nil {
		return rerr
	}
	of.size = resp.Size
	refreshBlocks(of, resp.Extents)
	// Drop every cached copy of the file's surviving blocks: a shrink just
	// zeroed the final block's tail in DRAM (our clean cached copy still
	// shows the old bytes), and a grow may have handed us newly allocated
	// blocks with stale previous-life copies on this core. The descriptor's
	// dirty data was written back above, so nothing of ours is lost.
	if c.cfg.Options.DirectAccess && of.blocks.Len() > 0 {
		dropped := c.cfg.Cache.InvalidateExtents(of.blocks.Runs())
		if dropped > 0 {
			c.stats.invBlocks.Add(uint64(dropped))
			c.charge(sim.Cycles(dropped) * c.cfg.Machine.Cost.CachePerLine)
		}
	}
	// The writeback above put our data in DRAM and TRUNCATE always bumps;
	// with the window intact the surviving cached blocks are consistent at
	// the new version.
	of.expectVersion(resp.Version, true)
	c.settleVersion(of)
	of.wrote, of.firstBlock = false, false
	return nil
}

// Stat returns metadata for a path.
func (c *Client) Stat(path string) (_ fsapi.Stat, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("stat"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	abs := c.absPath(path)
	resp, err := c.opOnPath(abs, &proto.Request{Op: proto.OpLookup}, &proto.Request{Op: proto.OpStat})
	if err != nil {
		return fsapi.Stat{}, err
	}
	return statFromWire(resp.Stat), nil
}

// Fstat returns metadata for an open descriptor.
func (c *Client) Fstat(fd fsapi.FD) (_ fsapi.Stat, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("fstat"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	of, err := c.getFD(fd)
	if err != nil {
		return fsapi.Stat{}, err
	}
	if of.pipe {
		return fsapi.Stat{Ino: of.ino.Local, Type: fsapi.TypePipe, Server: int(of.ino.Server)}, nil
	}
	resp, rerr := c.rpcOK(int(of.ino.Server), &proto.Request{Op: proto.OpStat, Target: of.ino})
	if rerr != nil {
		return fsapi.Stat{}, rerr
	}
	return statFromWire(resp.Stat), nil
}

// statFromWire converts a wire stat into the public form.
func statFromWire(w proto.StatWire) fsapi.Stat {
	return fsapi.Stat{
		Ino:   w.Ino.Local,
		Type:  w.Ftype,
		Size:  w.Size,
		Nlink: int(w.Nlink),
		Mode:  w.Mode,
		Server: func() int {
			if w.Ino.IsNil() {
				return 0
			}
			return int(w.Ino.Server)
		}(),
	}
}
