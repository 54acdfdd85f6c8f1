package server

import (
	"sort"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/wal"
)

// Shard ownership and migration (elastic placement, DESIGN.md §9).
//
// Every server holds the current placement map and its epoch. Requests that
// were routed through the map (distributed-directory entry operations) carry
// the epoch they were routed under; a mismatch is answered with EEPOCH so
// the client refreshes its cached routing table and retries. Inode, shared
// descriptor, and pipe operations are not placement-routed — inodes never
// migrate — and bypass the gate entirely (their requests carry epoch 0).
//
// Every epoch transition — a membership change or a failover's promotion —
// is driven by the deployment's control plane, one server at a time
// (servers never talk to each other):
//
//	FREEZE  announce the pending epoch. Entry reads at the current epoch
//	        are still served (the entries have not moved yet); entry
//	        mutations — and any operation already stamped with the pending
//	        epoch — park until COMMIT (parksFrozen).
//	PULL    copy out the entries that leave this server under the new map
//	        (membership changes only). Read-only and idempotent:
//	        re-pulling after a failed attempt returns the same set.
//	COMMIT  install the entries arriving here, drop the ones that left,
//	        adopt the new map and epoch, and resume parked requests. All of
//	        it is staged into the write-ahead log as one batch (entry
//	        installs, removals, then the epoch record), so a crashed server
//	        recovers on exactly one side of the epoch boundary — either
//	        wholly the old epoch or wholly the new, never a mix.

// epochGate intercepts placement-routed requests whose epoch does not match
// the server's. The third result reports whether the gate handled the
// request (reply or park); otherwise dispatch proceeds normally.
func (s *Server) epochGate(req *proto.Request, env msg.Envelope) (*proto.Response, bool, bool) {
	if req.Epoch == 0 || s.pmap == nil || req.Op.Info().Addr != proto.AddrShard {
		return nil, false, false
	}
	if s.parksFrozen(req.Op, req.Epoch) {
		s.migParked.park(req, env)
		return nil, true, true
	}
	if cur := s.epoch.Load(); req.Epoch != cur {
		// Behind (the client routed under a retired map) or ahead (this
		// server crashed mid-transition and has not been re-committed yet).
		// Either way the client refreshes and retries.
		return s.resp(proto.Response{Err: fsapi.EEPOCH, Epoch: cur}), false, true
	}
	return nil, false, false
}

// parksFrozen is the frozen server's park rule, shared by the epoch gate and
// the batch pre-screen: an entry op stamped with the pending epoch, or a
// mutation stamped with the current one, waits for COMMIT. Reads at the
// current epoch are served (the entries have not moved yet).
func (s *Server) parksFrozen(op proto.Op, epoch uint64) bool {
	info := op.Info()
	if !s.frozen || epoch == 0 || info.Addr != proto.AddrShard {
		return false
	}
	return epoch == s.pendingEpoch || (epoch == s.epoch.Load() && !info.ReadOnly)
}

// dirDistributed reports whether dir's entries are placement-routed. A shard
// of a remote directory can only exist here through distribution; for local
// directories the inode records the flag.
func (s *Server) dirDistributed(dir proto.InodeID) bool {
	if dir.Server != int32(s.cfg.ID) {
		return true
	}
	if ino, ok := s.inodes.Get(dir.Local); ok {
		return ino.distributed
	}
	return true
}

// outgoingEntries lists every distributed-directory entry this server holds
// that the given map routes elsewhere, in deterministic (dir, name) order.
func (s *Server) outgoingEntries(m *place.Map) []proto.MigEntry {
	self := int32(s.cfg.ID)
	var out []proto.MigEntry
	s.dirs.Range(func(dir proto.InodeID, sh *dirShard) bool {
		if !s.dirDistributed(dir) {
			return true
		}
		sh.ents.Range(func(name string, ent dirEnt) bool {
			if m.Route(proto.Hash(dir, name)) != self {
				out = append(out, proto.MigEntry{
					Dir:    dir,
					Name:   name,
					Target: ent.target,
					Ftype:  ent.ftype,
					Dist:   ent.dist,
				})
			}
			return true
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dir != out[j].Dir {
			if out[i].Dir.Server != out[j].Dir.Server {
				return out[i].Dir.Server < out[j].Dir.Server
			}
			return out[i].Dir.Local < out[j].Dir.Local
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// handleShardFreeze announces a pending epoch: from here until COMMIT, entry
// mutations park. Idempotent, and a no-op on a server that already reached
// the target epoch (a resumed migration re-freezing survivors).
func (s *Server) handleShardFreeze(req *proto.Request) *proto.Response {
	if s.pmap == nil {
		return s.errResp(fsapi.EINVAL)
	}
	cur := s.epoch.Load()
	if req.Epoch <= cur {
		return s.resp(proto.Response{Epoch: cur})
	}
	s.frozen = true
	s.pendingEpoch = req.Epoch
	return s.resp(proto.Response{Epoch: cur})
}

// handleShardPull copies out the entries that leave this server under the
// map carried in the request, together with the rmdir state every member
// must agree on: marks of in-flight rmdirs (so a create racing the rmdir
// parks on the new owner too, instead of landing on an unmarked shard that
// the rmdir's commit would destroy) and dead-directory tombstones (so a
// later-added member refuses entries into directories that no longer
// exist). Pure read: nothing is deleted until COMMIT.
func (s *Server) handleShardPull(req *proto.Request) *proto.Response {
	if s.pmap == nil {
		return s.errResp(fsapi.EINVAL)
	}
	m, err := proto.UnmarshalShardMsg(req.Data)
	if err != nil {
		return s.errResp(fsapi.EINVAL)
	}
	newMap, err := place.Decode(m.MapBlob)
	if err != nil {
		return s.errResp(fsapi.EINVAL)
	}
	out := s.outgoingEntries(newMap)
	reply := &proto.ShardMsg{Entries: out}
	s.dirs.Range(func(dir proto.InodeID, sh *dirShard) bool {
		if sh.marked && s.dirDistributed(dir) {
			reply.Marked = append(reply.Marked, dir)
		}
		return true
	})
	s.deadDirs.Range(func(dir proto.InodeID, _ struct{}) bool {
		reply.DeadDirs = append(reply.DeadDirs, dir)
		return true
	})
	sortInodeIDs(reply.Marked)
	sortInodeIDs(reply.DeadDirs)
	return s.resp(proto.Response{Data: reply.Marshal(), N: int64(len(out)), Epoch: s.epoch.Load()})
}

// sortInodeIDs orders ids deterministically (stable wire bytes and logs).
func sortInodeIDs(ids []proto.InodeID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Server != ids[j].Server {
			return ids[i].Server < ids[j].Server
		}
		return ids[i].Local < ids[j].Local
	})
}

// handleShardCommit finishes the migration on this server: install the
// incoming entries, drop the outgoing ones, adopt the new map and epoch
// (write-ahead logged as one batch), and resume parked requests.
// Re-committing an already-committed server is idempotent.
func (s *Server) handleShardCommit(req *proto.Request) *proto.Response {
	if s.pmap == nil {
		return s.errResp(fsapi.EINVAL)
	}
	m, err := proto.UnmarshalShardMsg(req.Data)
	if err != nil {
		return s.errResp(fsapi.EINVAL)
	}
	newMap, err := place.Decode(m.MapBlob)
	if err != nil {
		return s.errResp(fsapi.EINVAL)
	}
	cur := s.epoch.Load()
	if newMap.Epoch() < cur {
		return s.resp(proto.Response{Err: fsapi.EEPOCH, Epoch: cur})
	}

	// Install the entries arriving here, skipping entries already present
	// with the same value so a re-sent COMMIT (a resumed migration
	// re-driving servers that committed before the crash) neither inflates
	// the migration counters nor re-stages redundant log records. Who has an
	// entry cached is not part of its value: a present entry keeps its
	// trackers. A parked mutation that will re-run after the unpark below is
	// logged after these records, preserving replay order.
	var installed uint64
	for i := range m.Entries {
		ent := &m.Entries[i]
		sh := s.shard(ent.Dir)
		val := dirEnt{target: ent.Target, ftype: ent.Ftype, dist: ent.Dist}
		old, exists := sh.ents.Get(ent.Name)
		val.tracker = old.tracker
		if exists && old == val {
			continue
		}
		name := ent.Name // a present entry keeps the key it is stored under
		if !exists {
			name = sh.keep(name)
			s.entCount.Add(1)
		}
		sh.ents.Put(name, val)
		s.stageAddMap(ent.Dir, name, val)
		installed++
	}

	// Adopt the rmdir state the old members agreed on: re-mark shards of
	// in-flight rmdirs and install dead-directory tombstones.
	for _, dir := range m.Marked {
		if !s.deadDir(dir) {
			s.mark(s.shard(dir), dir, true)
		}
	}
	for _, dir := range m.DeadDirs {
		if !s.deadDir(dir) {
			s.deadDirs.Put(dir, struct{}{})
			s.stageDirKill(dir)
		}
	}

	// Drop everything the new map routes elsewhere (computed after the
	// installs, so a misdirected install heals itself), telling clients
	// that cached these lookups through us to forget them — the new owner
	// will track them on their next lookup.
	out := s.outgoingEntries(newMap)
	for _, ent := range out {
		sh, _ := s.dirs.Get(ent.Dir) // out was read from this table
		gone, _ := sh.ents.Get(ent.Name)
		sh.ents.Delete(ent.Name)
		sh.drop(ent.Name)
		s.entCount.Add(-1)
		s.stageRmMap(ent.Dir, ent.Name)
		s.invalidate(sh, ent.Dir, ent.Name, gone.tracker, -1)
	}

	s.pmap = newMap
	if newMap.Epoch() > cur {
		s.epoch.Store(newMap.Epoch())
		s.stage(wal.Record{Type: wal.RecEpoch, Epoch: newMap.Epoch(), Data: newMap.Encode()})
	}
	s.frozen = false
	s.pendingEpoch = 0

	s.statsMu.Lock()
	s.stats.MigInEntries += installed
	s.stats.MigOutEntries += uint64(len(out))
	s.statsMu.Unlock()

	// Resume parked work: requests parked by the freeze, and requests
	// parked on rmdir marks of shards whose entries just moved (their
	// re-dispatch answers EEPOCH, sending the client to the new owner).
	var woken waitq
	s.entryWaiters(&woken)
	s.wake(&woken)
	return s.resp(proto.Response{Epoch: newMap.Epoch(), N: int64(len(out))})
}
