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

// lookupEntry resolves one path component: the entry `name` in directory
// `dir`. It consults the directory cache first (when enabled) and falls back
// to a LOOKUP RPC to the entry's server.
func (c *Client) lookupEntry(dir proto.InodeID, dirDist bool, name string) (dcacheEnt, error) {
	if c.cfg.Options.DirCache {
		c.drainInvalidations()
		if ent, ok := c.dcache.Get(dcacheKey{dir, name}); ok {
			c.stats.dcHits.Add(1)
			return ent, nil
		}
		c.stats.dcMisses.Add(1)
	}
	resp, err := c.routedEntryRPCOK(dir, dirDist, name, &proto.Request{Op: proto.OpLookup, Dir: dir, Name: name})
	if err != nil {
		return dcacheEnt{}, err
	}
	ent := dcacheEnt{ino: resp.Ino, ftype: resp.Ftype, dist: resp.Dist}
	if c.cfg.Options.DirCache {
		c.dcache.Put(dcacheKey{dir, name}, ent)
	}
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

// resolveParent walks an absolute path up to (but not including) its final
// component and returns the parent directory plus the final name.
func (c *Client) resolveParent(abs string) (parent proto.InodeID, parentDist bool, name string, err error) {
	dir, base := fsapi.SplitDirBase(abs)
	if base == "." || base == "" {
		return proto.NilInode, false, "", fsapi.EINVAL
	}
	if !fsapi.ValidName(base) {
		return proto.NilInode, false, "", fsapi.EINVAL
	}
	ino, ftype, dist, rerr := c.resolvePath(dir)
	if rerr != nil {
		return proto.NilInode, false, "", rerr
	}
	if ftype != fsapi.TypeDir {
		return proto.NilInode, false, "", fsapi.ENOTDIR
	}
	return ino, dist, base, nil
}
