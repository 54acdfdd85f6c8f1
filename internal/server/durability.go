package server

import (
	"bytes"
	"fmt"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
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
// descriptors, pipes, the rmdir lock, and invalidation tracking are
// volatile — they describe sessions with client processes, and a server
// crash severs those sessions just as a machine crash severs open file
// descriptors. An rmdir mark is logged (mark). A parked request has had no
// effect yet: it outlives the crash like one still in the inbox, and the
// restart serves it again (wait.go).

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
		Nlink: ino.nlink,
	})
}

func (s *Server) stageNlink(ino *inode) {
	s.stage(wal.Record{Type: wal.RecNlink, Ino: ino.local, Nlink: ino.nlink})
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
	s.pendingBlocks = ino.blocks.Flatten(s.pendingBlocks)
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

// stageAddMap stages the entry's stored key, a view of its shard's slab
// whose bytes are never rewritten (dirShard.keep). stageRmMap stages a name
// that may be lent (decodeBatch): the request it belongs to is released only
// after its reply, whose commitPending has encoded the record.
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

// mark sets or clears sh's rmdir mark, logging the change: a recovered
// server holds off what a PREPARE it answered held off (DESIGN.md §3).
func (s *Server) mark(sh *dirShard, dir proto.InodeID, on bool) {
	if sh.marked == on {
		return
	}
	sh.marked = on
	typ := wal.RecDirUnmark
	if on {
		typ = wal.RecDirMark
	}
	s.stage(wal.Record{Type: typ, Dir: dir})
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
	s.checkpoints.Add(1)
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
			Nlink:  ino.nlink,
			Dist:   ino.distributed,
			Blocks: ino.blocks.Flatten(make([]uint64, 0, ino.blocks.Len())),
		}
		for _, b := range snap.Blocks {
			buf := make([]byte, bs)
			s.cfg.DRAM.ReadDirect(ncc.BlockID(b), 0, buf)
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
	s.dirs.Range(func(dir proto.InodeID, sh *dirShard) bool {
		if sh.marked {
			c.Marked = append(c.Marked, dir)
		}
		return true
	})
	return c
}

// crash serves a crash request (proto.KindCrash), the last request a loop
// serves: it is answered like any request, in arrival order, and then the
// process dies. The replication plane stops, the in-memory state is dropped
// and — when the request says the memory domain goes too — the server's DRAM
// partition is wiped. Requests still queued, and any sent later, wait in the
// inbox for recovery.
//
// Parked requests (blocked pipe reads, rmdir waiters, creates on a marked
// shard) have had no effect yet, so they outlive the crash like requests
// still in the inbox: they move to s.orphans, and the restart serves them
// again on the recovered state. The server is down, and its crash mutex held,
// from before the reply until the body has run: a caller that has the answer
// finds it crashed, and a Recover waits for the body to end.
func (s *Server) crash(env msg.Envelope) {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	s.crashed.Store(true)
	loseMemory := wire.NewDecoder(env.Payload).Bool()
	s.ep.PutBuf(env.Payload)
	end := s.cfg.Machine.Execute(s.cfg.Core, max(env.ArriveAt, s.clock.Now()), s.arrivalOverhead())
	s.clock.AdvanceTo(end)
	s.replyAt(env, s.errResp(fsapi.OK), end)
	s.die(loseMemory)
}

// die is a crash's body, run once the request loop has stopped.
func (s *Server) die(loseMemory bool) {
	if s.replEP != nil {
		// The replication plane dies with the process: the replicas this
		// server held for its primaries are volatile RAM and are gone
		// (resetState drops them), so recovered primaries rebase.
		s.replEP.Inbox.Close()
		<-s.replDone
	}
	s.orphan()
	if loseMemory {
		s.wipePartition()
	}
	s.lostMemory = loseMemory
	s.resetState()
}

// LoseMemory escalates the crash of a server that is already down to the
// loss of its memory domain: the partition is wiped, so the next Recover
// takes the lost-memory path. A running server loses its memory by a crash
// request instead, and is left alone here.
func (s *Server) LoseMemory() {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	if s.crashed.Load() && !s.lostMemory {
		s.wipePartition()
		s.lostMemory = true
	}
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
	s.pending, s.pendingBlocks = nil, nil
	// Placement falls back to the boot-time map; a later epoch adopted
	// through migration is restored by the checkpoint or an epoch record.
	// Freeze state is volatile and dies with the server.
	s.pmap = s.cfg.Placement
	if s.pmap != nil {
		s.epoch.Store(s.pmap.Epoch())
	} else {
		s.epoch.Store(0)
	}
	s.frozen = false
	s.pendingEpoch = 0
	s.entCount.Store(0)
	if s.replEP != nil {
		s.replicas = make(map[int]*repl.Follower)
	}
	if int32(s.cfg.ID) == proto.RootInode.Server {
		*s.inodes.Put(proto.RootInode.Local) = inode{
			local:       proto.RootInode.Local,
			ftype:       fsapi.TypeDir,
			mode:        fsapi.Mode755,
			nlink:       1,
			distributed: s.cfg.RootDistributed,
		}
	}
}

// Recover rebuilds the server's state from its checkpoint and log, restarts
// the request loop, and serves everything queued while it was down. The
// restart begins at the later of the server's clock and at, the caller's; it
// returns statistics about the recovery, including the virtual time the
// replay work was charged, and the time the restart ended, at which the
// caller resumes.
//
// The replay runs into a wal.Image — the checkpoint loaded, the log tail
// applied — which the restart then installs the way a promotion installs a
// replica's (DESIGN.md §6). Recovery is idempotent: records are state
// assignments, so rebuilding the same checkpoint+log prefix always produces
// the same state, and a second crash/recover cycle without intervening
// mutations is a no-op.
func (s *Server) Recover(at sim.Cycles) (wal.RecoveryStats, sim.Cycles, error) {
	st := wal.RecoveryStats{Server: s.cfg.ID}
	end, err := s.restart(at, func() (*wal.Checkpoint, sim.Cycles, error) {
		ckpt, ckptBytes, recs, logBytes, err := s.wal.Recover()
		if err != nil {
			return nil, 0, err
		}
		img := wal.NewImage(s.cfg.DRAM.BlockSize())
		if ckpt != nil {
			st.UsedCheckpoint = true
			st.CheckpointBytes = ckptBytes
			st.CheckpointInodes = len(ckpt.Inodes)
			img.Load(ckpt)
		}
		for _, r := range recs {
			img.Apply(r)
		}
		st.Records, st.Bytes = len(recs), logBytes
		st.Cycles = s.wal.ReplayCost(st.Records, st.Bytes, st.CheckpointBytes)
		return img.Checkpoint(), st.Cycles, nil
	})
	return st, end, err
}

// restart brings a crashed server back as a fresh incarnation, the one path
// Recover and Promote share, starting no earlier than at. prepare does what
// can fail — reading the log, or writing the snapshot out as the checkpoint —
// before anything in memory changes, so a failed prepare leaves the server as
// the crash left it. It returns the checkpoint to install and the virtual work
// the restart costs, which restart charges; restart returns when that work
// ended.
func (s *Server) restart(at sim.Cycles, prepare func() (*wal.Checkpoint, sim.Cycles, error)) (sim.Cycles, error) {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	if s.wal == nil {
		return 0, fmt.Errorf("server %d: durability disabled", s.cfg.ID)
	}
	if !s.crashed.Load() {
		return 0, fmt.Errorf("server %d: not crashed", s.cfg.ID)
	}
	c, work, err := prepare()
	if err != nil {
		return 0, err
	}
	s.incarnation++
	// A fresh span-ID namespace: requests re-served after the restart must
	// never collide with span IDs recorded before the crash.
	s.tem = trace.ServerEmitter(s.cfg.ID, s.incarnation)
	s.resetState()
	s.loadCheckpoint(c)

	// Rebuild the entry counter from the loaded shard table.
	var ents int64
	s.dirs.Range(func(_ proto.InodeID, sh *dirShard) bool {
		ents += int64(sh.ents.Len())
		return true
	})
	s.entCount.Store(ents)

	// Rebuild the partition's free list around the blocks loaded files own;
	// everything else (including blocks of inodes whose unlink replayed)
	// becomes allocatable again.
	s.reclaimBlocks()

	end := s.cfg.Machine.Execute(s.cfg.Core, max(s.clock.Now(), at), work)
	s.clock.AdvanceTo(end)

	// The entries were rebuilt without their trackers (who had them cached
	// died with the process), so this server can no longer invalidate
	// entries that surviving clients cached before the crash. Tell every
	// client still live to flush its directory cache — sent before the
	// inbox reopens, so atomic delivery guarantees the flush is seen before
	// any post-restart lookup reply.
	s.broadcastCacheFlush()
	// The requests the crash found parked are served again on the recovered
	// state, before anything the inbox holds.
	s.wake(&s.orphans)

	s.lostMemory = false
	s.done = make(chan struct{})
	if s.replEP != nil {
		s.replDone = make(chan struct{})
		s.replEP.Inbox.Reopen()
	}
	s.crashed.Store(false)
	go s.run()
	if s.replEP != nil {
		go s.runRepl()
	}
	return end, nil
}

// broadcastCacheFlush sends a wildcard invalidation (empty name) to every
// client library that has not left the network by now, in ascending
// endpoint id.
func (s *Server) broadcastCacheFlush() {
	iv := proto.Invalidation{Dir: proto.NilInode, Name: ""}
	s.cfg.Network.LiveClients(s.clock.Now(), func(ep msg.EndpointID) { s.sendInvalidation(ep, &iv) })
}

// loadCheckpoint installs a snapshot: a checkpoint, a replayed image, or a
// replica's at promotion. Block contents are written back to DRAM only when
// the crash lost the memory domain; the partition was wiped then, so a block
// the snapshot holds no bytes for reads as zeros, as the allocator hands a
// block over. After a plain process crash the shared DRAM still holds the
// live data (possibly newer than the snapshot, from clients writing the
// buffer cache directly) and must not be rolled back.
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
		ino := s.inodes.Put(snap.Local)
		*ino = inode{
			local:       snap.Local,
			ftype:       snap.Ftype,
			mode:        snap.Mode,
			size:        snap.Size,
			nlink:       snap.Nlink,
			distributed: snap.Dist,
			version:     s.verBase,
		}
		for _, b := range snap.Blocks {
			ino.blocks.Append(ncc.BlockID(b))
		}
		if s.lostMemory {
			for j, b := range snap.Blocks {
				if j < len(snap.Data) && snap.Data[j] != nil {
					// The image's zero tail is left implied, so the
					// block holds only its written lines (DESIGN.md §8).
					s.cfg.DRAM.ZeroBlock(ncc.BlockID(b))
					s.cfg.DRAM.WriteDirect(ncc.BlockID(b), 0, bytes.TrimRight(snap.Data[j], "\x00"))
				}
			}
		}
		// The last number of the space reserves nothing rather than
		// wrap the counter back to numbers already issued.
		if ino.local+1 > s.nextIno {
			s.nextIno = ino.local + 1
		}
	}
	for i := range c.Dirs {
		ds := &c.Dirs[i]
		sh := s.shard(ds.Dir)
		for _, ent := range ds.Ents {
			name := ent.Name
			if _, dup := sh.ents.Get(name); !dup {
				name = sh.keep(name)
			}
			sh.ents.Put(name, dirEnt{target: ent.Target, ftype: ent.Ftype, dist: ent.Dist})
		}
	}
	for _, dir := range c.DeadDirs {
		s.deadDirs.Put(dir, struct{}{})
	}
	for _, dir := range c.Marked {
		s.shard(dir).marked = true
	}
}
