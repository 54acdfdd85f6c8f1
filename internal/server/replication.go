package server

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Replication plane (DESIGN.md §12).
//
// A server with replication enabled runs a second endpoint and goroutine —
// the replication plane — alongside its request loop. The plane ingests
// REPL_APPEND batches into the Follower replicas this server keeps for its
// primaries, answers REPL_SEAL from the control plane at failover, serves
// heartbeat pings, and (on the primary side) receives async REPL_ACKs. It
// never blocks on another server, which is what makes sync mode's blocking
// ship from the request loop deadlock-free: the request loop of server A
// waits only on the replication plane of server B, and replication planes
// wait on nobody.

// ReplOptions configures a server's role in replication (both the shipping
// primary and the ingesting follower side). The zero value disables it.
type ReplOptions struct {
	// Mode selects off / sync / async shipping.
	Mode repl.Mode
	// Window bounds async mode's unacked records before a ship escalates
	// to a blocking flush.
	Window int
}

// ReplTarget names the follower a primary ships to. Down lets the shipper
// skip (and mark for resync) a follower that is currently crashed instead
// of blocking a sync ship against a closed inbox.
type ReplTarget struct {
	ID   int
	EP   msg.EndpointID
	Down func() bool
}

// SetReplTarget installs (or changes) the server's shipping target. A
// changed follower starts from nothing, so the next ship carries a rebase
// snapshot.
func (s *Server) SetReplTarget(t *ReplTarget) {
	old := s.replTarget.Swap(t)
	if t != nil && (old == nil || old.ID != t.ID) {
		s.replNeedSync.Store(true)
	}
}

// ReplEndpointID returns the replication-plane endpoint id, if the server
// has one.
func (s *Server) ReplEndpointID() (msg.EndpointID, bool) {
	if s.replEP == nil {
		return 0, false
	}
	return s.replEP.ID, true
}

// MarkReplResync forces the next ship to carry a rebase snapshot (used
// after a promotion invalidated the old replica relationship).
func (s *Server) MarkReplResync() {
	s.replNeedSync.Store(true)
	s.replDurable.Store(0)
}

// runRepl is the replication plane's loop. Like run, it exits on crash and
// pushes the undelivered envelope back so it is served after recovery.
func (s *Server) runRepl() {
	defer close(s.replDone)
	for {
		env, ok := s.replEP.Inbox.PopWaitEarliest()
		if !ok {
			return
		}
		if s.crashed.Load() {
			s.replEP.Inbox.Push(env)
			return
		}
		s.handleRepl(env)
	}
}

// handleRepl serves one replication-plane message. All replica state is
// confined to this goroutine.
func (s *Server) handleRepl(env msg.Envelope) {
	req, err := proto.UnmarshalRequest(env.Payload)
	if err != nil {
		return
	}
	cost := &s.cfg.Machine.Cost
	now := env.ArriveAt
	if c := s.replClock.Now(); c > now {
		now = c
	}
	switch req.Op {
	case proto.OpPing:
		// Heartbeat: prove liveness and report this server's shipping
		// horizons so the same beat carries follower-lag data.
		end := s.cfg.Machine.Execute(s.cfg.Core, now, cost.MsgRecv+cost.MsgSend)
		s.replClock.AdvanceTo(end)
		if env.Reply != nil {
			ack := &repl.Ack{Server: int32(s.cfg.ID), Durable: s.replDurable.Load()}
			resp := &proto.Response{Data: ack.Marshal()}
			s.cfg.Network.Reply(s.replEP, env, proto.KindResponse, resp.Marshal(), end)
		}

	case proto.OpReplAck:
		// Primary side: a follower's one-way async ack.
		end := s.cfg.Machine.Execute(s.cfg.Core, now, cost.MsgRecv)
		s.replClock.AdvanceTo(end)
		a, err := repl.UnmarshalAck(req.Data)
		if err != nil {
			return
		}
		s.noteAck(a)

	case proto.OpReplAppend:
		s.handleReplAppend(req, env, now)

	case proto.OpReplSeal:
		m, err := repl.UnmarshalMsg(req.Data)
		if err != nil {
			return
		}
		var rep repl.SealReply
		f := s.replicas[int(m.Primary)]
		if f != nil {
			// Sealing is idempotent and retains the replica, so a retried
			// failover (the first attempt died mid-promotion) seals again
			// and receives the same horizon and snapshot.
			f.Seal()
			rep.Durable = f.Durable()
			rep.Snap = f.Snapshot().Marshal()
		}
		work := cost.MsgRecv + cost.MsgSend + sim.LineCost(cost.WalPerLine, len(rep.Snap))
		end := s.cfg.Machine.Execute(s.cfg.Core, now, work)
		s.replClock.AdvanceTo(end)
		if env.Reply != nil {
			resp := &proto.Response{Data: rep.Marshal()}
			s.cfg.Network.Reply(s.replEP, env, proto.KindResponse, resp.Marshal(), end)
		}
	}
}

// noteAck folds a follower ack into the primary-side horizon tracking.
func (s *Server) noteAck(a *repl.Ack) {
	for {
		cur := s.replDurable.Load()
		if a.Durable <= cur || s.replDurable.CompareAndSwap(cur, a.Durable) {
			break
		}
	}
	if a.NeedSync {
		s.replNeedSync.Store(true)
	}
}

// handleReplAppend ingests one shipped batch into the replica of its
// primary and acks the resulting horizon — as the RPC reply in sync mode,
// as a one-way REPL_ACK to the primary's replication plane in async mode.
func (s *Server) handleReplAppend(req *proto.Request, env msg.Envelope, now sim.Cycles) {
	cost := &s.cfg.Machine.Cost
	m, err := repl.UnmarshalMsg(req.Data)
	if err != nil {
		return
	}
	work := cost.MsgRecv
	ack := repl.Ack{Server: int32(s.cfg.ID), Primary: m.Primary}
	f := s.replicas[int(m.Primary)]
	switch {
	case m.Snap != nil:
		// Rebase: replace (or create) the replica from the snapshot. A
		// sealed replica was consumed by a promotion; the rebase is the
		// promoted primary re-establishing the relationship.
		c, err := wal.UnmarshalCheckpoint(m.Snap)
		if err != nil {
			ack.NeedSync = true
			break
		}
		if f == nil || f.Sealed() {
			f = repl.NewFollower(int(m.Primary), s.cfg.DRAM.BlockSize())
			s.replicas[int(m.Primary)] = f
		}
		f.Rebase(c, m.SnapLSN)
		ack.Durable = f.Durable()
		work += sim.LineCost(cost.WalPerLine, len(m.Snap))
	case f == nil || f.Sealed():
		// No live replica to append to: a fresh follower assignment or a
		// post-promotion stale replica. Drop the sealed corpse and ask for
		// a rebase.
		delete(s.replicas, int(m.Primary))
		ack.NeedSync = true
	default:
		recs, err := wal.DecodeRecords(m.Recs)
		if err != nil {
			// A shipped batch is all-or-nothing; a framing error means the
			// replica can no longer trust its horizon. Rebase.
			ack.NeedSync = true
			break
		}
		ack.NeedSync = f.Ingest(m.Base, recs)
		ack.Durable = f.Durable()
		work += sim.Cycles(len(recs))*cost.WalReplayPerRec + sim.LineCost(cost.WalPerLine, len(m.Recs))
	}
	work += cost.MsgSend // the ack
	end := s.cfg.Machine.Execute(s.cfg.Core, now, work)
	s.replClock.AdvanceTo(end)

	s.replAcks.Add(1)
	if env.Reply != nil {
		resp := &proto.Response{Data: ack.Marshal()}
		s.cfg.Network.Reply(s.replEP, env, proto.KindResponse, resp.Marshal(), end)
		return
	}
	payload := (&proto.Request{Op: proto.OpReplAck, Data: ack.Marshal()}).Marshal()
	s.replAckBytes.Add(uint64(len(payload)))
	_, _ = s.cfg.Network.Send(s.replEP, msg.EndpointID(m.AckTo), proto.KindRequest, payload, end, nil)
	// Park the replication plane's lane again: the Send joined it at the
	// ack's send time, and nothing else advances it between batches, so a
	// pinned frontier here would wedge the parallel engine. The ack's
	// destination is the primary's (ungated) replication inbox, so the lane
	// need not hold a frontier for it.
	s.cfg.Network.GateIdle(s.replEP.ID)
}

// ship sends the just-appended record batch to the follower while the local
// flush is still under way, and returns the earliest time replication lets
// the client reply go: in sync mode that is when the follower's ack has been
// processed (ack-before-reply), in async mode the ship is fire-and-forget
// unless the unacked window overflowed, in which case the ship degrades to a
// blocking flush (bounded lag). Called from the request loop at the end of
// the WAL append's CPU work, which assigned the LSNs; commitPending holds the
// reply for the local flush as well.
func (s *Server) ship(recs []wal.Record, at sim.Cycles) sim.Cycles {
	t := s.replTarget.Load()
	if t == nil || len(recs) == 0 {
		return at
	}
	last := recs[len(recs)-1].LSN
	s.replLastLSN.Store(last)
	if t.Down != nil && t.Down() {
		// The follower is down: skip the ship rather than blocking a
		// client reply against a closed inbox. The replica is now behind
		// by records it will never see from batches alone, so the next
		// ship to the recovered follower carries a rebase snapshot —
		// and until then a promotion falls back to WAL replay, keeping
		// the no-acked-write-lost invariant intact.
		s.replNeedSync.Store(true)
		return at
	}
	cost := &s.cfg.Machine.Cost
	m := repl.Msg{Primary: int32(s.cfg.ID)}
	if s.replEP != nil {
		m.AckTo = int32(s.replEP.ID)
	}
	if s.replNeedSync.Load() {
		// Rebase: the snapshot reflects every record just appended (it is
		// built from live state after the append), so it covers the log
		// through the batch's last LSN.
		m.Snap = s.buildCheckpoint().Marshal()
		m.SnapLSN = last
		s.replResyncs.Add(1)
	} else {
		// The exact frames the append just wrote to the log; Marshal below
		// copies them out of the log's buffer.
		m.Base = recs[0].LSN
		m.Recs = s.wal.LastFrames()
	}
	payload := (&proto.Request{Op: proto.OpReplAppend, Data: m.Marshal()}).Marshal()
	sendEnd := s.cfg.Machine.Execute(s.cfg.Core, at, cost.MsgSend)
	s.clock.AdvanceTo(sendEnd)
	s.replShips.Add(1)
	s.replBytes.Add(uint64(len(payload)))
	// Re-park the server's own lane once the ship is done: sending from
	// s.ep joins its lane (and a blocking ship pins it at the ack arrival),
	// but a server's lane must not constrain the gate between ships — the
	// in-flight client request whose commit triggered the ship already
	// holds the floor with its own Await pin, and the follower's
	// replication inbox is ungated.
	defer s.cfg.Network.GateIdle(s.ep.ID)

	blocking := s.cfg.Repl.Mode == repl.Sync
	if !blocking {
		// Async: bound the unacked window. When the follower has fallen
		// more than a window behind, this ship waits for its ack — the
		// back-pressure that makes "bounded loss" a guarantee instead of
		// a hope.
		if lag := last - s.replDurable.Load(); lag > uint64(s.cfg.Repl.Window) {
			blocking = true
		}
	}
	if !blocking {
		if _, err := s.cfg.Network.Send(s.ep, t.EP, proto.KindRequest, payload, sendEnd, nil); err != nil {
			s.replNeedSync.Store(true)
			return sendEnd
		}
		if m.Snap != nil {
			// The rebase is in flight; stop re-shipping snapshots. If it
			// is lost, the follower's next ack says NeedSync again.
			s.replNeedSync.Store(false)
		}
		s.traceShip(at, sendEnd, false)
		return sendEnd
	}
	env, err := s.cfg.Network.RPC(s.ep, t.EP, proto.KindRequest, payload, sendEnd)
	if err != nil {
		s.replNeedSync.Store(true)
		return sendEnd
	}
	recvAt := env.ArriveAt
	if recvAt < sendEnd {
		recvAt = sendEnd
	}
	end := s.cfg.Machine.Execute(s.cfg.Core, recvAt, cost.MsgRecv)
	s.clock.AdvanceTo(end)
	resp, rerr := proto.UnmarshalResponse(env.Payload)
	if rerr != nil {
		s.replNeedSync.Store(true)
		return end
	}
	a, aerr := repl.UnmarshalAck(resp.Data)
	if aerr != nil {
		s.replNeedSync.Store(true)
		return end
	}
	s.noteAck(a)
	if !a.NeedSync {
		s.replNeedSync.Store(false)
	}
	s.traceShip(at, end, true)
	return end
}

// shipCheckpoint rebases the follower onto a just-written checkpoint. A
// checkpoint captures state the log does not carry — buffer-cache contents
// written by direct-access clients — and §6's contract declares that data
// durable from the checkpoint on. The replica must cover it too, or a
// promotion after a memory-domain loss would roll those bytes back to
// zero where the fallback replay (checkpoint + tail) would not. The ship
// always waits for the follower's ack, in async mode too: when a
// checkpoint returns, the replica covers it.
func (s *Server) shipCheckpoint(c *wal.Checkpoint, at sim.Cycles) sim.Cycles {
	t := s.replTarget.Load()
	if t == nil {
		return at
	}
	last := s.wal.Stats().LastLSN
	s.replLastLSN.Store(last)
	if t.Down != nil && t.Down() {
		// Same rule as ship: never block against a closed inbox. The
		// replica misses the checkpoint, so it must be rebased before it
		// is trusted again.
		s.replNeedSync.Store(true)
		return at
	}
	cost := &s.cfg.Machine.Cost
	m := repl.Msg{Primary: int32(s.cfg.ID), Snap: c.Marshal(), SnapLSN: last}
	if s.replEP != nil {
		m.AckTo = int32(s.replEP.ID)
	}
	payload := (&proto.Request{Op: proto.OpReplAppend, Data: m.Marshal()}).Marshal()
	sendEnd := s.cfg.Machine.Execute(s.cfg.Core, at, cost.MsgSend)
	s.clock.AdvanceTo(sendEnd)
	s.replShips.Add(1)
	s.replResyncs.Add(1)
	s.replBytes.Add(uint64(len(payload)))
	// As in ship: re-park s.ep's lane once the blocking rebase completes.
	defer s.cfg.Network.GateIdle(s.ep.ID)
	env, err := s.cfg.Network.RPC(s.ep, t.EP, proto.KindRequest, payload, sendEnd)
	if err != nil {
		s.replNeedSync.Store(true)
		return sendEnd
	}
	recvAt := env.ArriveAt
	if recvAt < sendEnd {
		recvAt = sendEnd
	}
	end := s.cfg.Machine.Execute(s.cfg.Core, recvAt, cost.MsgRecv)
	s.clock.AdvanceTo(end)
	resp, rerr := proto.UnmarshalResponse(env.Payload)
	if rerr != nil {
		s.replNeedSync.Store(true)
		return end
	}
	a, aerr := repl.UnmarshalAck(resp.Data)
	if aerr != nil {
		s.replNeedSync.Store(true)
		return end
	}
	s.noteAck(a)
	if !a.NeedSync {
		s.replNeedSync.Store(false)
	}
	return end
}

// traceShip records the replication leg of a traced request: the window
// from ship start to release (ack arrival when the ship waited for one).
func (s *Server) traceShip(start, end sim.Cycles, acked bool) {
	if s.curTrace == 0 || s.tr == nil {
		return
	}
	name := "ship"
	if acked {
		name = "ship+ack"
	}
	s.tr.Record(trace.Span{
		Trace: s.curTrace, ID: s.tem.Next(), Parent: s.curParent,
		Kind: trace.KindRepl, Name: name, Where: ^int32(s.cfg.ID),
		Start: start, End: end,
	})
}

// Promote installs a sealed follower snapshot as this server's state and
// restarts it under a fresh incarnation — recovery without the log replay.
// The caller has already stamped the snapshot with the bumped placement
// map, so the promoted server answers EEPOCH to every pre-failover epoch
// and clients reroute through their normal refresh-and-retry.
//
// The snapshot is also written down as the server's first checkpoint,
// truncating the log: records beyond the follower's horizon must never
// resurrect in a later replay, or the promoted state and the durable state
// would diverge on the next crash.
func (s *Server) Promote(c *wal.Checkpoint, snapBytes int) (sim.Cycles, error) {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	if s.wal == nil {
		return 0, fmt.Errorf("server %d: durability disabled", s.cfg.ID)
	}
	if !s.crashed.Load() {
		return 0, fmt.Errorf("server %d: not crashed", s.cfg.ID)
	}
	s.incarnation++
	s.tem = trace.ServerEmitter(s.cfg.ID, s.incarnation)
	s.resetState()
	s.loadCheckpoint(c)

	var ents int64
	s.dirs.Range(func(_ proto.InodeID, sh *dirShard) bool {
		ents += int64(sh.ents.Len())
		return true
	})
	s.entCount.Store(ents)
	s.reclaimBlocks()

	if err := s.wal.WriteCheckpoint(c); err != nil {
		return 0, fmt.Errorf("server %d: promote checkpoint: %w", s.cfg.ID, err)
	}

	// The promotion's critical path: install the snapshot (the same
	// per-byte cost replay charges for a checkpoint load) and write it
	// back out as the new checkpoint. Crucially there is no per-record
	// replay term — the follower already did that work off the critical
	// path, as each batch arrived.
	cost := &s.cfg.Machine.Cost
	work := s.wal.ReplayCost(0, 0, snapBytes)
	work += sim.LineCost(cost.WalPerLine, int(s.wal.Stats().CheckpointBytes)) + cost.WalFlush
	end := s.cfg.Machine.Execute(s.cfg.Core, s.clock.Now(), work)
	s.clock.AdvanceTo(end)
	s.statsMu.Lock()
	s.stats.Checkpoints++
	s.statsMu.Unlock()

	s.broadcastCacheFlush()

	// The old replica relationship died with the old incarnation: the
	// follower's copy is sealed and consumed. Re-establish from scratch.
	s.MarkReplResync()
	s.replLastLSN.Store(s.wal.Stats().LastLSN)

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
	return work, nil
}

// reclaimBlocks rebuilds the partition free list around the blocks the
// current inode table owns (shared by Recover and Promote).
func (s *Server) reclaimBlocks() {
	inUse := make(map[ncc.BlockID]bool)
	s.inodes.Range(func(_ uint64, ino *inode) bool {
		for _, b := range ino.blocks {
			inUse[b] = true
		}
		return true
	})
	s.cfg.Partition.Reclaim(inUse)
}
