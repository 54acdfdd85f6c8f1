package server

import (
	"bytes"
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Durability hooks (DESIGN.md §6).
//
// When the server is built with a write-ahead log, every handler that
// mutates durable state stages a record describing the mutation's *result*.
// The staged records are appended to the log when the request's reply is
// sent, and the reply time is pushed out to their commit point, so clients
// observe durable-write latency in virtual time.
//
// Durable state is the namespace and file contents: inodes (type, mode,
// link count, size, block list), directory shards, dead-directory
// tombstones, and file data. Open-descriptor counts, server-side shared
// descriptors, pipes, rmdir marks, parked requests, and invalidation
// tracking are volatile — they describe sessions with client processes,
// and a server crash severs those sessions just as a machine crash severs
// open file descriptors.

// stage queues a record for the request currently being served. It is a
// no-op when durability is disabled, so handlers call it unconditionally.
func (s *Server) stage(r wal.Record) {
	if s.wal == nil {
		return
	}
	s.pending = append(s.pending, r)
}

func (s *Server) stageInode(ino *inode) {
	s.stage(wal.Record{
		Type:  wal.RecInode,
		Ino:   ino.local,
		Ftype: ino.ftype,
		Mode:  ino.mode,
		Dist:  ino.distributed,
		Nlink: int32(ino.nlink),
	})
}

func (s *Server) stageNlink(ino *inode) {
	s.stage(wal.Record{Type: wal.RecNlink, Ino: ino.local, Nlink: int32(ino.nlink)})
}

func (s *Server) stageSize(ino *inode) {
	s.stage(wal.Record{Type: wal.RecSize, Ino: ino.local, Size: ino.size})
}

func (s *Server) stageBlocks(ino *inode) {
	if s.wal == nil {
		return
	}
	// Only the log's encoder reads the list, at the commit: it is cut from a
	// scratch the commit empties, full capacity so that a later record's
	// cannot grow into it.
	start := len(s.pendingBlocks)
	for _, b := range ino.blocks {
		s.pendingBlocks = append(s.pendingBlocks, uint64(b))
	}
	s.stage(wal.Record{
		Type:   wal.RecBlocks,
		Ino:    ino.local,
		Size:   ino.size,
		Blocks: s.pendingBlocks[start:len(s.pendingBlocks):len(s.pendingBlocks)],
	})
}

func (s *Server) stageWrite(ino *inode, off int64, data []byte) {
	if s.wal == nil {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.stage(wal.Record{Type: wal.RecWrite, Ino: ino.local, Off: off, Data: cp})
}

func (s *Server) stageAddMap(dir proto.InodeID, name string, ent dirEnt) {
	s.stage(wal.Record{
		Type:   wal.RecAddMap,
		Dir:    dir,
		Name:   name,
		Target: ent.target,
		Ftype:  ent.ftype,
		Dist:   ent.dist,
	})
}

func (s *Server) stageRmMap(dir proto.InodeID, name string) {
	s.stage(wal.Record{Type: wal.RecRmMap, Dir: dir, Name: name})
}

func (s *Server) stageDirKill(dir proto.InodeID) {
	s.stage(wal.Record{Type: wal.RecDirKill, Dir: dir})
}

// commitPending appends the staged records and returns the virtual time at
// which the reply may be sent: no earlier than the end of the flush carrying
// them nor, when they ship to a follower that must ack first, than the
// processing of that ack. The flush and the ship overlap — the log device
// works while the server's core sends the batch and takes the ack — so the
// reply waits for the later of the two, not their sum (DESIGN.md §6, §12).
// The append CPU work is charged to the server's core.
func (s *Server) commitPending(at sim.Cycles) sim.Cycles {
	if s.wal == nil || len(s.pending) == 0 {
		return at
	}
	recs := s.pending
	flushed, cpu, err := s.wal.Append(recs, at)
	if err != nil {
		// Losing the log voids the durability contract; treat it like the
		// DRAM model treats a wild pointer.
		panic(fmt.Sprintf("server %d: wal append: %v", s.cfg.ID, err))
	}
	if s.curTrace != 0 {
		// Surface the durability wait as a WAL span under the request's RPC
		// span; a ship records its own, overlapping, sibling span.
		s.tr.Record(trace.Span{
			Trace: s.curTrace, ID: s.tem.Next(), Parent: s.curParent,
			Kind: trace.KindWAL, Name: s.curOp, Where: ^int32(s.cfg.ID),
			Start: at, End: flushed,
		})
	}
	appended := s.cfg.Machine.Execute(s.cfg.Core, at, cpu)
	s.clock.AdvanceTo(appended)
	shipped := s.ship(recs, appended)
	// The log and the ship have both encoded the records; the next request
	// stages into the same array, which keeps nothing of this one's alive.
	clear(recs)
	s.pending, s.pendingBlocks = recs[:0], s.pendingBlocks[:0]
	if cap(recs) > maxPendingKeep {
		s.pending = nil
	}
	if cap(s.pendingBlocks) > maxPendingKeep*16 {
		s.pendingBlocks = nil
	}
	return max(flushed, shipped)
}

// maxPendingKeep bounds the staging array a server keeps between requests (a
// batch of proto.MaxBatchOps creates stages a few records per sub-op, a shard
// migration's commit one per entry moved), and sixteen times it the block
// numbers kept for their lists.
const maxPendingKeep = 256

// handleCheckpoint serves the CHECKPOINT control request (sent by the core
// layer's Checkpoint API, and usable by operators through it).
func (s *Server) handleCheckpoint(req *proto.Request) *proto.Response {
	if s.wal == nil {
		return s.errResp(fsapi.EINVAL)
	}
	if err := s.writeCheckpoint(); err != nil {
		return s.errResp(fsapi.EIO)
	}
	return s.resp(proto.Response{})
}

// writeCheckpoint snapshots the server's durable state, saves it, and
// truncates the log. Runs on the server goroutine (directly from the
// request loop, or from auto-checkpointing between requests).
func (s *Server) writeCheckpoint() error {
	c := s.buildCheckpoint()
	if err := s.wal.WriteCheckpoint(c); err != nil {
		return err
	}
	// Charge the snapshot work: every byte of state written.
	bytes := int(s.wal.Stats().CheckpointBytes)
	cost := sim.LineCost(s.cfg.Machine.Cost.WalPerLine, bytes) + s.cfg.Machine.Cost.WalFlush
	end := s.cfg.Machine.Execute(s.cfg.Core, s.clock.Now(), cost)
	s.clock.AdvanceTo(end)
	s.statsMu.Lock()
	s.stats.Checkpoints++
	s.statsMu.Unlock()
	// The checkpoint holds direct-access block contents the log never saw;
	// the replica must cover them too before promotion can be trusted with
	// a memory-domain loss (DESIGN.md §12).
	s.shipCheckpoint(c, s.clock.Now())
	return nil
}

// buildCheckpoint serializes durable state into a wal.Checkpoint, including
// the contents of every buffer-cache block the server's files own (so the
// checkpoint functions as a full backup of its DRAM partition).
func (s *Server) buildCheckpoint() *wal.Checkpoint {
	c := &wal.Checkpoint{NextIno: s.nextIno}
	if s.pmap != nil {
		c.Epoch = s.epoch.Load()
		c.PlaceMap = s.pmap.Encode()
	}
	bs := s.cfg.DRAM.BlockSize()
	s.inodes.Range(func(_ uint64, ino *inode) bool {
		if ino.ftype == fsapi.TypePipe || ino.nlink <= 0 {
			// Pipes are volatile; unlinked-but-open inodes do not survive
			// the crash that severs the descriptors keeping them alive.
			return true
		}
		snap := wal.InodeSnap{
			Local:  ino.local,
			Ftype:  ino.ftype,
			Mode:   ino.mode,
			Size:   ino.size,
			Nlink:  int32(ino.nlink),
			Dist:   ino.distributed,
			Blocks: blockList(ino),
		}
		for _, b := range ino.blocks {
			buf := make([]byte, bs)
			s.cfg.DRAM.ReadDirect(b, 0, buf)
			snap.Data = append(snap.Data, buf)
		}
		c.Inodes = append(c.Inodes, snap)
		return true
	})
	s.dirs.Range(func(dir proto.InodeID, sh *dirShard) bool {
		ds := wal.DirSnap{Dir: dir}
		sh.ents.Range(func(name string, ent dirEnt) bool {
			ds.Ents = append(ds.Ents, wal.DirEntSnap{
				Name:   name,
				Target: ent.target,
				Ftype:  ent.ftype,
				Dist:   ent.dist,
			})
			return true
		})
		c.Dirs = append(c.Dirs, ds)
		return true
	})
	s.deadDirs.Range(func(dir proto.InodeID, _ struct{}) bool {
		c.DeadDirs = append(c.DeadDirs, dir)
		return true
	})
	return c
}

// Crash terminates the server abruptly, as if its process died: the request
// loop stops (requests already queued, and any sent later, wait in the
// inbox for recovery), all in-memory state is dropped, and — when
// loseMemory is set — the server's DRAM partition is wiped too, modelling
// the loss of its memory domain rather than just the process.
//
// Parked requests (blocked pipe reads, rmdir waiters) die with the server:
// their clients never receive replies, like processes blocked on a dead
// machine.
func (s *Server) Crash(loseMemory bool) {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	if s.crashed.Load() {
		// Already down. Escalating a process crash to a memory-domain
		// loss still wipes the partition so the next Recover takes the
		// lost-memory path.
		if loseMemory && !s.lostMemory {
			s.wipePartition()
			s.lostMemory = true
		}
		return
	}
	s.crashed.Store(true)
	s.ep.Inbox.Close()
	<-s.done
	if s.replEP != nil {
		// The replication plane dies with the process: the replicas this
		// server held for its primaries are volatile RAM and are gone
		// (resetState drops them), so recovered primaries rebase.
		s.replEP.Inbox.Close()
		<-s.replDone
	}
	// The loops have exited; their state is now safe to touch from here.
	if loseMemory {
		s.wipePartition()
	}
	s.lostMemory = loseMemory
	s.resetState()
}

// wipePartition zeroes every block of the server's DRAM partition.
func (s *Server) wipePartition() {
	lo, hi := s.cfg.Partition.Range()
	for b := lo; b < hi; b++ {
		s.cfg.DRAM.ZeroBlock(b)
	}
}

// Crashed reports whether the server is currently down.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// resetState reinitializes the server to its boot state (as New does).
// Shared-descriptor ids restart in a fresh incarnation's id space, so a
// stale FdID held by a client that outlived a crash can never alias a
// descriptor issued after recovery — it just fails with EBADF.
func (s *Server) resetState() {
	s.inodes = newInodeTable()
	s.nextIno = 2
	s.verBase = uint64(s.incarnation) << 32
	s.dirs = newDirTable()
	s.deadDirs = newDeadDirTable()
	s.sharedFds = newFdTable()
	s.nextFd = proto.FdID(uint64(s.incarnation)<<32) + 1
	s.tracking = newTrackTable()
	s.pending, s.pendingBlocks = nil, nil
	// Placement falls back to the boot-time map; a later epoch adopted
	// through migration is restored by the checkpoint or an epoch record.
	// Freeze state and parked requests are volatile and die with the
	// server, like every other parked request.
	s.pmap = s.cfg.Placement
	if s.pmap != nil {
		s.epoch.Store(s.pmap.Epoch())
	} else {
		s.epoch.Store(0)
	}
	s.frozen = false
	s.pendingEpoch = 0
	s.migParked = nil
	s.entCount.Store(0)
	if s.replEP != nil {
		s.replicas = make(map[int]*repl.Follower)
	}
	if int32(s.cfg.ID) == proto.RootInode.Server {
		root := &inode{
			local:       proto.RootInode.Local,
			ftype:       fsapi.TypeDir,
			mode:        fsapi.Mode755,
			nlink:       1,
			distributed: s.cfg.RootDistributed,
		}
		s.inodes.Put(root.local, root)
	}
}

// Recover rebuilds the server's state from its checkpoint and log, restarts
// the request loop, and serves everything queued while it was down. It
// returns statistics about the recovery, including the virtual time the
// replay work was charged.
//
// Recovery is idempotent: records are state assignments, so rebuilding the
// same checkpoint+log prefix always produces the same state, and a second
// crash/recover cycle without intervening mutations is a no-op.
func (s *Server) Recover() (wal.RecoveryStats, error) {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	st := wal.RecoveryStats{Server: s.cfg.ID}
	if s.wal == nil {
		return st, fmt.Errorf("server %d: durability disabled", s.cfg.ID)
	}
	if !s.crashed.Load() {
		return st, fmt.Errorf("server %d: not crashed", s.cfg.ID)
	}
	ckpt, ckptBytes, recs, err := s.wal.Recover()
	if err != nil {
		return st, err
	}
	s.incarnation++
	// A fresh span-ID namespace: requests re-served after recovery must
	// never collide with span IDs recorded before the crash.
	s.tem = trace.ServerEmitter(s.cfg.ID, s.incarnation)
	s.resetState()
	if ckpt != nil {
		st.UsedCheckpoint = true
		st.CheckpointInodes = len(ckpt.Inodes)
		st.CheckpointBytes = ckptBytes
		s.loadCheckpoint(ckpt)
	}
	for _, r := range recs {
		st.Bytes += int64(len(r.Data) + len(r.Name) + 64)
		s.applyRecord(r)
	}
	st.Records = len(recs)

	// Rebuild the entry counter from the recovered shard table.
	var ents int64
	s.dirs.Range(func(_ proto.InodeID, sh *dirShard) bool {
		ents += int64(sh.ents.Len())
		return true
	})
	s.entCount.Store(ents)

	// Rebuild the partition's free list around the blocks recovered files
	// own; everything else (including blocks of inodes whose unlink
	// replayed) becomes allocatable again.
	s.reclaimBlocks()

	// Charge the recovery work in virtual time.
	st.Cycles = s.wal.ReplayCost(st.Records, st.Bytes, st.CheckpointBytes)
	end := s.cfg.Machine.Execute(s.cfg.Core, s.clock.Now(), st.Cycles)
	s.clock.AdvanceTo(end)

	// The crash lost the invalidation-tracking sets, so this server can no
	// longer invalidate entries that surviving clients cached before the
	// crash. Tell every registered client to flush its directory cache —
	// sent before the inbox reopens, so atomic delivery guarantees the
	// flush is seen before any post-recovery lookup reply.
	s.broadcastCacheFlush()

	s.lostMemory = false
	s.done = make(chan struct{})
	s.ep.Inbox.Reopen()
	if s.replEP != nil {
		s.replDone = make(chan struct{})
		s.replEP.Inbox.Reopen()
	}
	s.crashed.Store(false)
	go s.run()
	if s.replEP != nil {
		go s.runRepl()
	}
	return st, nil
}

// broadcastCacheFlush sends a wildcard invalidation (empty name) to every
// registered client library.
func (s *Server) broadcastCacheFlush() {
	iv := proto.Invalidation{Dir: proto.NilInode, Name: ""}
	for _, ep := range s.cfg.Registry.Endpoints() {
		s.sendInvalidation(ep, &iv)
	}
}

// loadCheckpoint installs a snapshot. Block contents are written back to
// DRAM only when the crash lost the memory domain; after a plain process
// crash the shared DRAM still holds the live data (possibly newer than the
// snapshot, from clients writing the buffer cache directly) and must not be
// rolled back.
func (s *Server) loadCheckpoint(c *wal.Checkpoint) {
	if c.NextIno > s.nextIno {
		s.nextIno = c.NextIno
	}
	if c.Epoch > 0 && len(c.PlaceMap) > 0 {
		m, err := place.Decode(c.PlaceMap)
		if err != nil {
			// The checkpoint passed its CRC, so an undecodable map is a
			// programming error; recovering silently onto the boot map
			// would strand the server behind the fleet's epoch forever.
			panic(fmt.Sprintf("server %d: checkpoint placement map: %v", s.cfg.ID, err))
		}
		s.pmap = m
		s.epoch.Store(c.Epoch)
	}
	for i := range c.Inodes {
		snap := &c.Inodes[i]
		ino := &inode{
			local:       snap.Local,
			ftype:       snap.Ftype,
			mode:        snap.Mode,
			size:        snap.Size,
			nlink:       int(snap.Nlink),
			distributed: snap.Dist,
			version:     s.verBase,
		}
		for _, b := range snap.Blocks {
			ino.blocks = append(ino.blocks, ncc.BlockID(b))
		}
		if s.lostMemory {
			for j, b := range ino.blocks {
				if j < len(snap.Data) && snap.Data[j] != nil {
					// The image's zero tail is left implied, so the
					// block holds only its written lines (DESIGN.md §8).
					s.cfg.DRAM.ZeroBlock(b)
					s.cfg.DRAM.WriteDirect(b, 0, bytes.TrimRight(snap.Data[j], "\x00"))
				}
			}
		}
		s.inodes.Put(ino.local, ino)
		if ino.local >= s.nextIno {
			s.nextIno = ino.local + 1
		}
	}
	for i := range c.Dirs {
		ds := &c.Dirs[i]
		sh := s.shard(ds.Dir)
		for _, ent := range ds.Ents {
			sh.ents.Put(ent.Name, dirEnt{target: ent.Target, ftype: ent.Ftype, dist: ent.Dist})
		}
	}
	for _, dir := range c.DeadDirs {
		s.deadDirs.Put(dir, struct{}{})
	}
}

// applyRecord replays one log record. Records carry resulting state, so
// replay is idempotent; records referring to inodes that a later-replayed
// (or checkpoint-reflected) unlink removed are skipped.
func (s *Server) applyRecord(r wal.Record) {
	switch r.Type {
	case wal.RecInode:
		if r.Ino >= s.nextIno {
			s.nextIno = r.Ino + 1
		}
		if r.Ftype == fsapi.TypePipe {
			// Pipe state is volatile; the record only reserves the inode
			// number so it is not reissued to a new file.
			return
		}
		s.inodes.Put(r.Ino, &inode{
			local:       r.Ino,
			ftype:       r.Ftype,
			mode:        r.Mode,
			nlink:       int(r.Nlink),
			distributed: r.Dist,
			version:     s.verBase,
		})
	case wal.RecNlink:
		ino, ok := s.inodes.Get(r.Ino)
		if !ok {
			return
		}
		ino.nlink = int(r.Nlink)
		if ino.nlink <= 0 {
			// No descriptors survive a crash, so the inode reaps
			// immediately; Reclaim frees its blocks afterwards.
			s.inodes.Delete(r.Ino)
		}
	case wal.RecSize:
		if ino, ok := s.inodes.Get(r.Ino); ok && r.Size > ino.size {
			ino.size = r.Size
		}
	case wal.RecBlocks:
		ino, ok := s.inodes.Get(r.Ino)
		if !ok {
			return
		}
		if s.lostMemory {
			// At runtime every block enters an inode's map zeroed (Alloc
			// zeroes on hand-over), but replay assigns logged block lists
			// directly, bypassing the allocator. After a memory loss the
			// zero-fill must be reproduced here for blocks newly entering
			// this inode's map, or a reused block would expose its previous
			// owner's replayed bytes — e.g. through the gap a growing
			// truncate opened. Subsequent RecWrite records then lay the
			// file's logged contents back on top. After a plain process
			// crash DRAM survived and may hold direct-access writes newer
			// than the log; it must not be touched (same rule as RecWrite).
			had := make(map[ncc.BlockID]bool, len(ino.blocks))
			for _, b := range ino.blocks {
				had[b] = true
			}
			for _, b := range r.Blocks {
				if !had[ncc.BlockID(b)] {
					s.cfg.DRAM.ZeroBlock(ncc.BlockID(b))
				}
			}
		}
		ino.blocks = ino.blocks[:0]
		for _, b := range r.Blocks {
			ino.blocks = append(ino.blocks, ncc.BlockID(b))
		}
		ino.size = r.Size
	case wal.RecWrite:
		ino, ok := s.inodes.Get(r.Ino)
		if !ok {
			return
		}
		// Like loadCheckpoint, only rewrite DRAM when the memory domain
		// was lost: after a plain process crash the surviving buffer
		// cache may hold direct-access writes newer than this record,
		// which must not be rolled back.
		if s.lostMemory {
			s.writeData(ino, r.Off, r.Data)
		}
		if end := r.Off + int64(len(r.Data)); end > ino.size {
			ino.size = end
		}
	case wal.RecAddMap:
		sh := s.shard(r.Dir)
		sh.ents.Put(r.Name, dirEnt{target: r.Target, ftype: r.Ftype, dist: r.Dist})
	case wal.RecRmMap:
		if sh, ok := s.dirs.Get(r.Dir); ok {
			sh.ents.Delete(r.Name)
		}
	case wal.RecDirKill:
		s.dirs.Delete(r.Dir)
		s.deadDirs.Put(r.Dir, struct{}{})
	case wal.RecEpoch:
		m, err := place.Decode(r.Data)
		if err != nil {
			// CRC-framed record with an undecodable map: a bug, and
			// skipping it would leave the server permanently behind the
			// published epoch (clients would spin on EEPOCH).
			panic(fmt.Sprintf("server %d: epoch record placement map: %v", s.cfg.ID, err))
		}
		s.pmap = m
		s.epoch.Store(r.Epoch)
	}
}
