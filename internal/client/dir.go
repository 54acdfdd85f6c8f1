package client

import (
	"slices"
	"strings"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

// Mkdir creates a directory. The MkdirOpt.Distributed flag selects whether
// the new directory's entries are sharded across all file servers (§3.3).
func (c *Client) Mkdir(path string, opt fsapi.MkdirOpt) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("mkdir"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	abs := c.absPath(path)
	parent, parentDist, name, err := c.resolveParent(abs)
	if err != nil {
		return err
	}
	mode := opt.Mode
	if mode == 0 {
		mode = fsapi.Mode755
	}
	// The application requests distribution per directory; the deployment
	// may globally disable the technique (Figure 10 ablation).
	opt.Distributed = opt.Distributed && c.cfg.Options.DirDistribution
	var buf [1]*proto.Response
	resps, rerr := c.coalescedCreate(parent, parentDist, name, []*proto.Request{{
		Op:          proto.OpCreateCoalesced,
		Dir:         parent,
		Name:        name,
		Mode:        mode,
		Ftype:       fsapi.TypeDir,
		Distributed: opt.Distributed,
		Exclusive:   true,
	}}, buf[:0])
	if rerr != nil {
		return rerr
	}
	if resps != nil {
		if resps[0].Err != fsapi.OK {
			return resps[0].Err
		}
		c.cacheEntry(parent, name, dcacheEnt{ino: resps[0].Ino, ftype: fsapi.TypeDir, dist: opt.Distributed})
		return nil
	}
	entrySrv, _ := c.routeEntry(parent, parentDist, name)
	inodeSrv := c.chooseInodeServer(entrySrv, fsapi.TypeDir, parentDist)

	mkResp, err := c.rpcOK(inodeSrv, &proto.Request{
		Op:          proto.OpMknod,
		Ftype:       fsapi.TypeDir,
		Mode:        mode,
		Distributed: opt.Distributed,
	})
	if err != nil {
		return err
	}
	addResp, aerr := c.routedEntryRPC(parent, parentDist, name, &proto.Request{
		Op:          proto.OpAddMap,
		Dir:         parent,
		Name:        name,
		Target:      mkResp.Ino,
		Ftype:       fsapi.TypeDir,
		Distributed: opt.Distributed,
	})
	if aerr != nil {
		return aerr
	}
	if addResp.Err != fsapi.OK {
		_, _ = c.rpc(inodeSrv, &proto.Request{Op: proto.OpUnlinkInode, Target: mkResp.Ino})
		return addResp.Err
	}
	c.cacheEntry(parent, name, dcacheEnt{ino: mkResp.Ino, ftype: fsapi.TypeDir, dist: opt.Distributed})
	return nil
}

// Unlink removes a file's directory entry and drops a link on its inode.
// The file data remains readable through already-open descriptors (§3.4).
//
// RM_MAP finds the inode it unlinks from, so UNLINK_INODE rides with it as
// its chain (opOnPath): one message when the entry's server stores the
// inode — the common case, coalesced creation put it there — and what the
// directory cache holds does not matter.
func (c *Client) Unlink(path string) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("unlink"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	_, err = c.opOnPath(c.absPath(path),
		&proto.Request{Op: proto.OpRmMap, Ftype: fsapi.TypeRegular},
		&proto.Request{Op: proto.OpUnlinkInode})
	return err
}

// Rename atomically renames oldPath to newPath: it first creates (or
// replaces) the entry under the new name, then removes the old name
// (§3.3). Only a file replaces a file, and a replaced target loses one link;
// ADD_MAP refuses every other existing target (DESIGN.md §10).
//
// The plain path is two RPCs, ADD_MAP then RM_MAP, and it is the only path
// when the two entries live on different servers. Entries that the current
// routing snapshot puts on one server travel as a single
// stop-on-error batch message: the server stages both records for one log
// append, so both names change in one flush (and one ship), and a crash
// leaves either the old name or the new one, never both.
func (c *Client) Rename(oldPath, newPath string) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("rename"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	oldAbs := c.absPath(oldPath)
	newAbs := c.absPath(newPath)
	oldParent, oldDist, oldName, err := c.resolveParent(oldAbs)
	if err != nil {
		return err
	}
	ent, err := c.lookupEntry(oldParent, oldDist, oldName)
	if err != nil {
		return err
	}
	if oldAbs == newAbs {
		return nil
	}
	// A directory cannot move under itself. The prefix is compared in place:
	// a rename on the delivery path must not allocate.
	if ent.ftype == fsapi.TypeDir && len(newAbs) > len(oldAbs) && newAbs[len(oldAbs)] == '/' && newAbs[:len(oldAbs)] == oldAbs {
		return fsapi.EINVAL
	}
	newParent, newDist, newName, err := c.resolveParent(newAbs)
	if err != nil {
		return err
	}
	add := &proto.Request{
		Op:          proto.OpAddMap,
		Dir:         newParent,
		Name:        newName,
		Target:      ent.ino,
		Ftype:       ent.ftype,
		Distributed: ent.dist,
		Replace:     true,
	}
	rm := &proto.Request{Op: proto.OpRmMap, Dir: oldParent, Name: oldName}

	// Each half's reply comes from the batch when both entries sit on one
	// server, and from its own routed RPC otherwise (or when the batch left
	// that half to be redone).
	var addResp, rmResp *proto.Response
	newSrv, newEpoch := c.routeEntry(newParent, newDist, newName)
	oldSrv, oldEpoch := c.routeEntry(oldParent, oldDist, oldName)
	if newSrv == oldSrv {
		add.Epoch, rm.Epoch = newEpoch, oldEpoch
		if addResp, rmResp, err = c.renameBatched(newSrv, add, rm); err != nil {
			return err
		}
	}
	if addResp == nil {
		if addResp, err = c.routedEntryRPC(newParent, newDist, newName, add); err != nil {
			return err
		}
	}
	if addResp.Err != fsapi.OK {
		return addResp.Err
	}
	if rmResp == nil {
		rmResp, err = c.routedEntryRPC(oldParent, oldDist, oldName, rm)
	}
	c.uncacheEntry(oldParent, oldName)
	c.cacheEntry(newParent, newName, ent)
	if err != nil {
		return err
	}
	if rmResp.Err != fsapi.OK {
		return rmResp.Err
	}

	// If the rename replaced an existing file, that file lost its link.
	if addResp.N == 1 && !addResp.Ino.IsNil() && addResp.Ino != ent.ino {
		if _, err := c.rpcOK(int(addResp.Ino.Server), &proto.Request{Op: proto.OpUnlinkInode, Target: addResp.Ino}); err != nil {
			return err
		}
	}
	return nil
}

// renameBatched sends rename's ADD_MAP(replace) and RM_MAP, both stamped for
// the one server that stores the two entries, as a single stop-on-error
// batch message, and returns each half's reply. A nil reply means that half
// still has to be issued on the routed path: the placement epoch had moved
// (EEPOCH; the routing snapshot has been refreshed) before it ran. A half
// that succeeded is never handed back — ADD_MAP is an upsert, but only its
// first reply names the target it replaced.
func (c *Client) renameBatched(srv int, add, rm *proto.Request) (addResp, rmResp *proto.Response, err error) {
	var buf [2]*proto.Response
	resps, err := c.rpcBatch(srv, true, []*proto.Request{add, rm}, buf[:0])
	c.uncacheEntry(rm.Dir, rm.Name) // an RM_MAP is out: no callback will say so
	if err != nil {
		return nil, nil, err
	}
	addResp, rmResp = resps[0], resps[1]
	if addResp.Err == fsapi.EEPOCH || rmResp.Err == fsapi.EEPOCH {
		c.refreshRouting()
		c.noteEpochRefresh(proto.OpBatch, 0)
		rmResp = nil
		if addResp.Err != fsapi.OK {
			addResp = nil
		}
	}
	return addResp, rmResp, nil
}

// ReadDir lists a directory. Distributed directories require contacting all
// servers; with the directory broadcast optimization those RPCs overlap
// (§3.6.2). Entries are merged and sorted by name.
func (c *Client) ReadDir(path string) (_ []fsapi.Dirent, err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("readdir"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	abs := c.absPath(path)
	ino, dist, err := c.resolveDir(abs)
	if err != nil {
		return nil, err
	}
	resps, err := c.routedBroadcast(ino.Server, dist, &proto.Request{Op: proto.OpReadDirShard, Dir: ino})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, resp := range resps {
		if resp.Err != fsapi.OK {
			return nil, resp.Err
		}
		n += len(resp.Ents)
	}
	if n == 0 {
		return nil, nil
	}
	// The names are the replies' own strings, one per reply (proto decodes
	// them so), which outlive the responses.
	out := make([]fsapi.Dirent, 0, n)
	for _, resp := range resps {
		for _, ent := range resp.Ents {
			out = append(out, fsapi.Dirent{Name: ent.Name, Ino: ent.Ino.Local, Type: ent.Ftype})
		}
	}
	slices.SortFunc(out, func(a, b fsapi.Dirent) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// Rmdir removes an empty directory using the three-phase protocol (§3.3):
// serialize at the home server, prepare on every server holding a shard of
// the directory, then commit (or abort), and finally remove the parent's
// entry and the directory inode.
func (c *Client) Rmdir(path string) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("rmdir"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	abs := c.absPath(path)
	parent, parentDist, name, err := c.resolveParent(abs)
	if err != nil {
		return err
	}
	ent, err := c.lookupEntry(parent, parentDist, name)
	if err != nil {
		return err
	}
	if ent.ftype != fsapi.TypeDir {
		return fsapi.ENOTDIR
	}
	dir := ent.ino
	home := int(dir.Server)

	// Phase 0: serialize concurrent rmdirs of this directory.
	lockResp, err := c.rpcOK(home, &proto.Request{Op: proto.OpRmdirLock, Target: dir})
	if err != nil {
		return err
	}
	dist := lockResp.Dist

	// Phase 1: prepare — every shard must be empty. Each phase's fan-out
	// re-routes through the placement map independently: a migration
	// between phases re-targets the next broadcast to the new member set
	// (re-preparing or re-committing a shard is idempotent).
	prepResps, err := c.routedBroadcast(dir.Server, dist, &proto.Request{Op: proto.OpRmdirPrepare, Dir: dir, Target: dir})
	if err != nil {
		_, _ = c.rpcOK(home, &proto.Request{Op: proto.OpRmdirUnlock, Target: dir})
		return err
	}
	var failure error
	for _, resp := range prepResps {
		if resp.Err != fsapi.OK {
			failure = resp.Err
			break
		}
	}

	if failure != nil {
		// Phase 2b: abort — clear deletion marks and release the lock.
		if _, err := c.routedBroadcast(dir.Server, dist, &proto.Request{Op: proto.OpRmdirAbort, Dir: dir, Target: dir}); err != nil {
			return err
		}
		if _, err := c.rpcOK(home, &proto.Request{Op: proto.OpRmdirUnlock, Target: dir}); err != nil {
			return err
		}
		return failure
	}

	// Phase 2a: commit — shards are deleted.
	if _, err := c.routedBroadcast(dir.Server, dist, &proto.Request{Op: proto.OpRmdirCommit, Dir: dir, Target: dir}); err != nil {
		return err
	}
	// Remove the parent's entry for the directory. The shards are gone and
	// the server calls nobody back about a removal of their own: whatever
	// the remaining steps answer, this client's cached copies go here.
	c.uncacheEntry(parent, name)
	c.uncacheDir(dir)
	if _, err := c.routedEntryRPCOK(parent, parentDist, name, &proto.Request{Op: proto.OpRmMap, Dir: parent, Name: name, Ftype: fsapi.TypeDir}); err != nil && err != fsapi.ENOENT {
		return err
	}
	// Remove the directory inode and release the serialization lock.
	_, err = c.rpcOK(home, &proto.Request{Op: proto.OpRmdirFinish, Target: dir})
	return err
}
