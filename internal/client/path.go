package client

import (
	"repro/internal/fsapi"
	"repro/internal/proto"
)

// dcacheKey identifies a cached directory lookup.
type dcacheKey struct {
	dir  proto.InodeID
	name string
}

// dcacheEnt is the cached result of a lookup RPC.
type dcacheEnt struct {
	ino   proto.InodeID
	ftype fsapi.FileType
	dist  bool
}

// absPath converts a possibly relative path into an absolute, dot-resolved
// path using the process working directory.
func (c *Client) absPath(path string) string { return fsapi.AbsPath(c.cwd, path) }

// drainInvalidations processes all pending directory-cache invalidation
// callbacks. Hare performs this before every use of the directory cache:
// because message delivery is atomic, any invalidation sent before this
// lookup began is guaranteed to be in the queue already (§3.6.1).
func (c *Client) drainInvalidations() {
	for {
		env, ok := c.ep.Callbacks.TryPop()
		if !ok {
			return
		}
		c.clock.AdvanceTo(env.ArriveAt)
		c.charge(c.cfg.Machine.Cost.MsgRecv)
		iv, err := proto.UnmarshalInvalidation(env.Payload)
		c.cfg.Network.ReleaseToSender(env) // the decoded name is a copy
		if err != nil {
			continue
		}
		c.stats.invals.Add(1)
		if iv.Name == "" {
			// Wildcard from a recovered server: its invalidation-tracking
			// sets died with it, so every cached entry is suspect.
			c.dcache.Clear()
			continue
		}
		c.dcache.Delete(dcacheKey{iv.Dir, iv.Name})
	}
}

// cachedEntry asks the directory cache (when enabled) for the entry `name`
// of directory `dir`.
func (c *Client) cachedEntry(dir proto.InodeID, name string) (dcacheEnt, bool) {
	if !c.cfg.Options.DirCache {
		return dcacheEnt{}, false
	}
	c.drainInvalidations()
	ent, ok := c.dcache.Get(dcacheKey{dir, name})
	if ok {
		c.stats.dcHits.Add(1)
	} else {
		c.stats.dcMisses.Add(1)
	}
	return ent, ok
}

// lookupEntry resolves one path component: the entry `name` in directory
// `dir`. It consults the directory cache first and falls back to a LOOKUP
// RPC to the entry's server.
func (c *Client) lookupEntry(dir proto.InodeID, dirDist bool, name string) (dcacheEnt, error) {
	if ent, ok := c.cachedEntry(dir, name); ok {
		return ent, nil
	}
	resp, err := c.routedEntryRPCOK(dir, dirDist, name, &proto.Request{Op: proto.OpLookup, Dir: dir, Name: name})
	if err != nil {
		return dcacheEnt{}, err
	}
	ent := dcacheEnt{ino: resp.Ino, ftype: resp.Ftype, dist: resp.Dist}
	c.cacheEntry(dir, name, ent)
	return ent, nil
}

// cacheEntry records a lookup result in the directory cache (after creating
// an entry, for example); the server tracks this client for invalidations.
func (c *Client) cacheEntry(dir proto.InodeID, name string, ent dcacheEnt) {
	if !c.cfg.Options.DirCache {
		return
	}
	c.dcache.Put(dcacheKey{dir, name}, ent)
}

// uncacheEntry drops a cached lookup (after unlink/rename/rmdir by this
// client).
func (c *Client) uncacheEntry(dir proto.InodeID, name string) {
	c.dcache.Delete(dcacheKey{dir, name})
}

// uncacheDir drops every cached entry that belongs to the given directory.
// Deleting during Range would disturb the walk (backward-shift compaction
// moves entries), so the keys are collected first.
func (c *Client) uncacheDir(dir proto.InodeID) {
	var doomed []dcacheKey
	c.dcache.Range(func(k dcacheKey, _ dcacheEnt) bool {
		if k.dir == dir {
			doomed = append(doomed, k)
		}
		return true
	})
	for _, k := range doomed {
		c.dcache.Delete(k)
	}
}

// rootEnt describes the root directory from the client's configuration.
func (c *Client) rootEnt() dcacheEnt {
	return dcacheEnt{ino: c.cfg.Root, ftype: fsapi.TypeDir, dist: c.cfg.RootDist}
}

// resolvePath walks an absolute path and returns the final component's
// inode, type, and (for directories) distribution flag.
func (c *Client) resolvePath(abs string) (proto.InodeID, fsapi.FileType, bool, error) {
	cur := c.rootEnt()
	for comp, rest := fsapi.NextComponent(abs); comp != ""; comp, rest = fsapi.NextComponent(rest) {
		if cur.ftype != fsapi.TypeDir {
			return proto.NilInode, 0, false, fsapi.ENOTDIR
		}
		next, err := c.lookupEntry(cur.ino, cur.dist, comp)
		if err != nil {
			return proto.NilInode, 0, false, err
		}
		cur = next
	}
	return cur.ino, cur.ftype, cur.dist, nil
}

// resolveDir walks an absolute path that must name a directory.
func (c *Client) resolveDir(abs string) (proto.InodeID, bool, error) {
	ino, ftype, dist, err := c.resolvePath(abs)
	if err == nil && ftype != fsapi.TypeDir {
		err = fsapi.ENOTDIR
	}
	if err != nil {
		return proto.NilInode, false, err
	}
	return ino, dist, nil
}

// resolveParent walks an absolute path up to (but not including) its final
// component and returns the parent directory plus the final name.
func (c *Client) resolveParent(abs string) (parent proto.InodeID, parentDist bool, name string, err error) {
	dir, base := fsapi.SplitDirBase(abs)
	if !fsapi.ValidName(base) {
		return proto.NilInode, false, "", fsapi.EINVAL
	}
	parent, parentDist, err = c.resolveDir(dir)
	return parent, parentDist, base, err
}

// opOnPath runs op, an inode operation, on the inode that abs names and
// returns its response; an errno on the way there, or op's own, is the
// error. head is the entry operation that finds the inode: LOOKUP, which the
// root and a cached entry make unnecessary — op then goes alone to the
// inode's server — or RM_MAP, which removes the entry.
func (c *Client) opOnPath(abs string, head, op *proto.Request) (*proto.Response, error) {
	var ent dcacheEnt
	var resp *proto.Response
	dir, name := fsapi.SplitDirBase(abs)
	lookup := head.Op == proto.OpLookup
	switch {
	case lookup && name == ".":
		ent = c.rootEnt() // configuration, not an entry: nothing to look up
	case !lookup && !fsapi.ValidName(name):
		return nil, fsapi.EINVAL
	default:
		parent, parentDist, err := c.resolveDir(dir)
		if err != nil {
			return nil, err
		}
		known := false
		if lookup {
			ent, known = c.cachedEntry(parent, name)
		}
		if !known {
			if ent, resp, err = c.chainOnEntry(parent, parentDist, name, head, op); err != nil {
				return nil, err
			}
		}
	}
	// Not sent yet, or sent to a server that does not store the inode
	// (EXDEV: nothing ran there).
	if resp == nil || resp.Err == fsapi.EXDEV {
		op.Target = ent.ino
		return c.rpcOK(int(ent.ino.Server), op)
	}
	if resp.Err != fsapi.OK {
		return resp, resp.Err
	}
	return resp, nil
}

// chainOnEntry sends head — the entry operation on (parent, name) — and op
// to the entry's server as one dependent chain, op naming its target as
// proto.PrevInode: only that server knows the inode, and creation affinity
// has nearly always stored it there too (§3.6.4), so the pair costs the one
// round trip op alone would. It returns the entry head found and op's
// response, re-routing on EEPOCH like every routed helper; head's failure is
// the error. With pipelining off rpcBatch sends the two one after the other
// and resolves the target itself.
func (c *Client) chainOnEntry(parent proto.InodeID, parentDist bool, name string, head, op *proto.Request) (dcacheEnt, *proto.Response, error) {
	head.Dir, head.Name = parent, name
	var buf [2]*proto.Response
	for tries := 0; ; tries++ {
		srv, epoch := c.routeEntry(parent, parentDist, name)
		head.Epoch, op.Target = epoch, proto.PrevInode
		resps, err := c.rpcBatch(srv, true, []*proto.Request{head, op}, buf[:0])
		if head.Op == proto.OpRmMap {
			c.uncacheEntry(parent, name)
		}
		if err != nil {
			return dcacheEnt{}, nil, err
		}
		found := resps[0]
		if found.Err == fsapi.EEPOCH {
			if tries >= maxEpochRetries {
				return dcacheEnt{}, nil, fsapi.EIO
			}
			c.refreshRouting()
			c.noteEpochRefresh(head.Op, tries)
			c.yield()
			continue
		}
		if found.Err != fsapi.OK {
			return dcacheEnt{}, nil, found.Err
		}
		ent := dcacheEnt{ino: found.Ino, ftype: found.Ftype, dist: found.Dist}
		if head.Op == proto.OpLookup {
			c.cacheEntry(parent, name, ent)
		}
		return ent, resps[1], nil
	}
}
