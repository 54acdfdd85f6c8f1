package server

import (
	"fmt"

	"repro/internal/fsapi"
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
// confined to this goroutine, as are the recycled request the message is
// decoded into and the records of a shipped batch.
//
// Decoding copies the request's Data out of the payload, so from there on the
// payload's buffer is free, and it goes home (DESIGN.md §12): a sender that
// waits gets its answer written into the very buffer it sent, and a one-way
// payload is handed back to the cache it was drawn from. Ships and acks flow
// in opposite directions in different size classes; released at their
// receivers, both caches would miss once per message.
func (s *Server) handleRepl(env msg.Envelope) {
	req := &s.replReq
	err := proto.UnmarshalRequestInto(req, env.Payload)
	if env.Reply == nil {
		s.cfg.Network.ReleaseToSender(env)
	}
	cost := &s.cfg.Machine.Cost
	now := max(env.ArriveAt, s.replClock.Now())
	if err != nil {
		// Whoever sent it may be waiting in an RPC, which has no timeout.
		// Without an ack in it the answer reads as "rebase" to a shipper and
		// as "no replica" to a failover.
		s.replAnswer(env, &proto.Response{Err: fsapi.EINVAL}, now, cost.MsgRecv+cost.MsgSend)
		return
	}
	var out [64]byte // an ack's wire form; a seal reply outgrows it
	switch req.Op {
	case proto.OpPing:
		// Heartbeat: prove liveness and report this server's shipping
		// horizons so the same beat carries follower-lag data.
		ack := repl.Ack{Server: int32(s.cfg.ID), Durable: s.replDurable.Load()}
		s.replAnswer(env, &proto.Response{Data: ack.AppendTo(out[:0])}, now, cost.MsgRecv+cost.MsgSend)

	case proto.OpReplAck:
		// Primary side: a follower's one-way async ack.
		s.replClock.AdvanceTo(s.cfg.Machine.Execute(s.cfg.Core, now, cost.MsgRecv))
		if a, err := repl.UnmarshalAck(req.Data); err == nil {
			s.noteAck(a)
		}

	case proto.OpReplAppend:
		s.handleReplAppend(req, env, now)

	case proto.OpReplSeal:
		// A seal that cannot be decoded is answered like one for a primary
		// this server holds no replica of: the failover falls back to replay.
		var m repl.Msg
		var rep repl.SealReply
		if repl.UnmarshalMsgInto(&m, req.Data) == nil {
			if f := s.replicas[int(m.Primary)]; f != nil {
				// Sealing is idempotent and retains the replica, so a retried
				// failover (the first attempt died mid-promotion) seals again
				// and receives the same horizon and snapshot.
				f.Seal()
				rep.Durable = f.Durable()
				rep.Snap = f.Snapshot().Marshal()
			}
		}
		work := cost.MsgRecv + cost.MsgSend + sim.LineCost(cost.WalPerLine, len(rep.Snap))
		s.replAnswer(env, &proto.Response{Data: rep.AppendTo(out[:0])}, now, work)
	}
	req.Recycle()
}

// replAnswer charges the replication plane work from now and, when the sender
// of env waits for an answer, sends resp at the end of it, in env's own buffer.
// It returns when the work ends.
func (s *Server) replAnswer(env msg.Envelope, resp *proto.Response, now, work sim.Cycles) sim.Cycles {
	end := s.cfg.Machine.Execute(s.cfg.Core, now, work)
	s.replClock.AdvanceTo(end)
	if env.Reply != nil {
		s.cfg.Network.Reply(s.replEP, env, proto.KindResponse, resp.AppendTo(env.Payload[:0]), end)
	}
	return end
}

// noteAck folds a follower ack into the primary-side horizon tracking.
func (s *Server) noteAck(a repl.Ack) {
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
	work := cost.MsgRecv
	var m repl.Msg
	merr := repl.UnmarshalMsgInto(&m, req.Data)
	ack := repl.Ack{Server: int32(s.cfg.ID), Primary: m.Primary}
	f := s.replicas[int(m.Primary)]
	switch {
	case merr != nil:
		// Nothing in it can be trusted, the primary's id included; a shipper
		// that waits is told to rebase, a one-way ship names no one to tell.
		if env.Reply == nil {
			return
		}
		ack.NeedSync = true
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
		// Decoded in place in the request's Data: every frame is checked
		// before the replica sees the first record, and the replica copies
		// what it keeps (repl.Follower.Ingest).
		recs, err := wal.DecodeRecordsInto(s.replRecs, m.Recs)
		if err != nil {
			// A shipped batch is all-or-nothing; a framing error means the
			// replica can no longer trust its horizon. Rebase.
			ack.NeedSync = true
		} else {
			ack.NeedSync = f.Ingest(m.Base, recs)
			ack.Durable = f.Durable()
			work += sim.Cycles(len(recs))*cost.WalReplayPerRec + sim.LineCost(cost.WalPerLine, len(m.Recs))
		}
		s.replRecs = wal.ReleaseRecords(recs)
	}
	work += cost.MsgSend // the ack
	var out [64]byte
	wire := ack.AppendTo(out[:0])
	s.replAcks.Add(1)
	end := s.replAnswer(env, &proto.Response{Data: wire}, now, work)
	if env.Reply != nil {
		return
	}
	areq := proto.Request{Op: proto.OpReplAck, Data: wire}
	payload := areq.AppendTo(s.replEP.GetBuf(areq.SizeHint()))
	s.replAckBytes.Add(uint64(len(payload)))
	_, _ = s.cfg.Network.Send(s.replEP, msg.EndpointID(m.AckTo), proto.KindRequest, payload, end, nil)
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
	last := recs[len(recs)-1].LSN
	t := s.shipTarget(last)
	if t == nil {
		return at
	}
	m := repl.Msg{Primary: int32(s.cfg.ID)}
	if s.replNeedSync.Load() {
		// Rebase: the snapshot reflects every record just appended (it is
		// built from live state after the append), so it covers the log
		// through the batch's last LSN.
		m.Snap = s.buildCheckpoint().Marshal()
		m.SnapLSN = last
		s.replResyncs.Add(1)
	} else {
		// The exact frames the append just wrote to the log, where the log
		// encoded them; sendShip copies them out of its buffer.
		m.Base = recs[0].LSN
		m.Recs = s.wal.LastFrames()
	}
	wait := s.cfg.Repl.Mode == repl.Sync
	if !wait {
		// Async: bound the unacked window. When the follower has fallen
		// more than a window behind, this ship waits for its ack — the
		// back-pressure that makes "bounded loss" a guarantee instead of
		// a hope.
		wait = last-s.replDurable.Load() > uint64(s.cfg.Repl.Window)
	}
	end, ok := s.sendShip(t, &m, at, wait)
	if ok {
		s.traceShip(at, end, wait)
	}
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
	last := s.wal.Stats().LastLSN
	t := s.shipTarget(last)
	if t == nil {
		return at
	}
	s.replResyncs.Add(1)
	end, _ := s.sendShip(t, &repl.Msg{Primary: int32(s.cfg.ID), Snap: c.Marshal(), SnapLSN: last}, at, true)
	return end
}

// shipTarget records the log's horizon and returns the follower to ship to:
// nil when there is none, or when it is down — a ship must never block a
// client reply against a closed inbox. The replica is then behind by records
// it will never see from batches alone, so the next ship to the recovered
// follower carries a rebase snapshot, and until then a promotion falls back
// to WAL replay, keeping the no-acked-write-lost invariant intact.
func (s *Server) shipTarget(last uint64) *ReplTarget {
	t := s.replTarget.Load()
	if t == nil {
		return nil
	}
	s.replLastLSN.Store(last)
	if t.Down != nil && t.Down() {
		s.replNeedSync.Store(true)
		return nil
	}
	return t
}

// sendShip sends m to the follower from the request loop as one REPL_APPEND,
// at `at`, and with wait set blocks until the follower's ack has arrived and
// is folded into the shipping horizons. It returns when replication lets the
// request loop go on, and whether the ship went as intended — if not, the
// next one carries a rebase snapshot.
//
// The message is encoded into the server's scratch and the request from there
// into a buffer of this endpoint's cache. The ack of a ship that waits comes
// back in that same buffer (handleRepl) and a one-way ship's buffer is handed
// back by its receiver, so in steady state GetBuf finds one here every time.
func (s *Server) sendShip(t *ReplTarget, m *repl.Msg, at sim.Cycles, wait bool) (sim.Cycles, bool) {
	cost := &s.cfg.Machine.Cost
	if s.replEP != nil {
		m.AckTo = int32(s.replEP.ID)
	}
	s.shipBuf = m.AppendTo(s.shipBuf[:0])
	req := proto.Request{Op: proto.OpReplAppend, Data: s.shipBuf}
	payload := req.AppendTo(s.ep.GetBuf(req.SizeHint()))
	if cap(s.shipBuf) > maxShipScratch {
		s.shipBuf = nil // a snapshot's worth is not kept for the next batch
	}
	sendEnd := s.cfg.Machine.Execute(s.cfg.Core, at, cost.MsgSend)
	s.clock.AdvanceTo(sendEnd)
	s.replShips.Add(1)
	s.replBytes.Add(uint64(len(payload)))
	if !wait {
		if _, err := s.cfg.Network.Send(s.ep, t.EP, proto.KindRequest, payload, sendEnd, nil); err != nil {
			s.replNeedSync.Store(true)
			return sendEnd, false
		}
		if m.Snap != nil {
			// The rebase is in flight; stop re-shipping snapshots. If it
			// is lost, the follower's next ack says NeedSync again.
			s.replNeedSync.Store(false)
		}
		return sendEnd, true
	}
	env, err := s.cfg.Network.RPC(s.ep, t.EP, proto.KindRequest, payload, sendEnd)
	if err != nil {
		s.replNeedSync.Store(true)
		return sendEnd, false
	}
	end := s.cfg.Machine.Execute(s.cfg.Core, max(env.ArriveAt, sendEnd), cost.MsgRecv)
	s.clock.AdvanceTo(end)
	err = proto.UnmarshalResponseInto(&s.shipResp, env.Payload)
	s.ep.PutBuf(env.Payload)
	var a repl.Ack
	if err == nil {
		a, err = repl.UnmarshalAck(s.shipResp.Data)
	}
	if err != nil {
		s.replNeedSync.Store(true)
		return end, false
	}
	s.noteAck(a)
	if !a.NeedSync {
		s.replNeedSync.Store(false)
	}
	return end, true
}

// maxShipScratch bounds what the ship scratch keeps between ships: room for
// any request's record batch, not for a rebase snapshot.
const maxShipScratch = 64 << 10

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
