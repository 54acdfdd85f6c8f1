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
// ships (proto.KindReplShip) into the Follower replicas this server keeps
// for its primaries and answers seals (proto.KindReplSeal) from the control
// plane at failover; any other message gets an empty answer. It never blocks
// on another server, which is what makes the blocking ship from the request
// loop deadlock-free: the request loop of server A waits only on the
// replication plane of server B, and replication planes wait on nobody.

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

// serveRepl is the replication inbox's serve hook (msg.Queue.SetServe): a
// message that finds the plane asleep on an empty inbox is handled on its
// sender's goroutine, under either engine — the plane pops ungated, so the
// message is the one it would pop next. A crashed plane's message is
// declined, and waits in the inbox for recovery as the loop's would.
func (s *Server) serveRepl(env msg.Envelope) bool {
	if s.crashed.Load() {
		return false
	}
	s.handleRepl(env)
	return true
}

// handleRepl serves one replication-plane message, by its kind. All replica
// state is confined to the plane's holder, as are the records of a shipped
// batch.
//
// The payload is the repl.Msg itself, read where it lies, and the answer is
// written into that same buffer once nothing reads the message any more, so
// the buffer goes home to the sender's cache (DESIGN.md §12). Every sender
// waits in an RPC, which has no timeout, so everything gets an answer: what
// the plane does not serve gets an empty one, which a shipper reads as
// "rebase" and a failover as "no replica here".
func (s *Server) handleRepl(env msg.Envelope) {
	cost := &s.cfg.Machine.Cost
	work := cost.MsgRecv + cost.MsgSend
	answer := env.Payload[:0]
	switch env.Kind {
	case proto.KindReplShip:
		ack, ingest := s.ingest(env.Payload)
		work += ingest
		answer = ack.AppendTo(answer)
	case proto.KindReplSeal:
		rep := s.seal(env.Payload)
		work += sim.LineCost(cost.WalPerLine, len(rep.Snap))
		answer = rep.AppendTo(answer)
	}
	end := s.cfg.Machine.Execute(s.cfg.Core, max(env.ArriveAt, s.replClock.Now()), work)
	s.replClock.AdvanceTo(end)
	s.cfg.Network.Reply(s.replEP, env, proto.KindResponse, answer, end)
}

// seal seals the replica of the primary a seal message names and returns
// its horizon and snapshot. A message that does not decode is answered like
// one for a primary this server holds no replica of, with an empty reply:
// the failover falls back to replay.
func (s *Server) seal(b []byte) repl.SealReply {
	var m repl.Msg
	var rep repl.SealReply
	if repl.UnmarshalMsgInto(&m, b) == nil {
		if f := s.replicas[int(m.Primary)]; f != nil {
			// Sealing is idempotent and retains the replica, so a retried
			// failover (the first attempt died mid-promotion) seals again and
			// receives the same horizon and snapshot.
			f.Seal()
			rep.Durable = f.Durable()
			rep.Snap = f.Snapshot().Marshal()
		}
	}
	return rep
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

// ingest applies one shipped batch (or rebase snapshot) to the replica of its
// primary and returns the ack, with the work it took beyond receiving the
// ship and sending the ack. The batch is decoded in place in b, and the
// replica copies what it keeps (repl.Follower.Ingest) before ingest returns:
// the ack is then written over b.
func (s *Server) ingest(b []byte) (repl.Ack, sim.Cycles) {
	cost := &s.cfg.Machine.Cost
	var work sim.Cycles
	var m repl.Msg
	merr := repl.UnmarshalMsgInto(&m, b)
	ack := repl.Ack{Server: int32(s.cfg.ID), Primary: m.Primary}
	f := s.replicas[int(m.Primary)]
	switch {
	case merr != nil:
		// Nothing in it can be trusted, the primary's id included: the
		// shipper is told to rebase.
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
		// Every frame is checked before the replica sees the first record.
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
	s.replAcks.Add(1)
	return ack, work
}

// ship sends the just-appended record batch to the follower while the local
// flush is still under way, and returns the earliest time replication lets
// the client reply go: when the follower's ack has been processed
// (ack-before-reply). Called from the request loop at the end of the WAL
// append's CPU work, which assigned the LSNs; commitPending holds the reply
// for the local flush as well.
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
		// encoded them; sendShip copies them into the ship.
		m.Base = recs[0].LSN
		m.Recs = s.wal.LastFrames()
	}
	end, ok := s.sendShip(t, &m, at)
	if ok {
		s.traceShip(at, end)
	}
	return end
}

// shipCheckpoint rebases the follower onto a just-written checkpoint. A
// checkpoint captures state the log does not carry — buffer-cache contents
// written by direct-access clients — and §6's contract declares that data
// durable from the checkpoint on. The replica must cover it too, or a
// promotion after a memory-domain loss would roll those bytes back to
// zero where the fallback replay (checkpoint + tail) would not. When a
// checkpoint returns, the replica covers it.
func (s *Server) shipCheckpoint(c *wal.Checkpoint, at sim.Cycles) sim.Cycles {
	last := s.wal.Stats().LastLSN
	t := s.shipTarget(last)
	if t == nil {
		return at
	}
	s.replResyncs.Add(1)
	end, _ := s.sendShip(t, &repl.Msg{Primary: int32(s.cfg.ID), Snap: c.Marshal(), SnapLSN: last}, at)
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

// sendShip sends m to the follower from the request loop as one ship, at
// `at`, and blocks until the follower's ack has arrived and is folded into the
// shipping horizons. It returns when replication lets the request loop go on,
// and whether the ship went as intended — if not, the next one carries a
// rebase snapshot.
//
// The message is encoded straight into a buffer of this endpoint's cache. The
// ack comes back in that same buffer (handleRepl), so in steady state GetBuf
// finds one here every time.
func (s *Server) sendShip(t *ReplTarget, m *repl.Msg, at sim.Cycles) (sim.Cycles, bool) {
	cost := &s.cfg.Machine.Cost
	payload := m.AppendTo(s.ep.GetBuf(m.SizeHint()))
	sendEnd := s.cfg.Machine.Execute(s.cfg.Core, at, cost.MsgSend)
	s.clock.AdvanceTo(sendEnd)
	s.replShips.Add(1)
	s.replBytes.Add(uint64(len(payload)))
	env, err := s.cfg.Network.RPC(s.ep, t.EP, proto.KindReplShip, payload, sendEnd)
	if err != nil {
		s.replNeedSync.Store(true)
		return sendEnd, false
	}
	end := s.cfg.Machine.Execute(s.cfg.Core, max(env.ArriveAt, sendEnd), cost.MsgRecv)
	s.clock.AdvanceTo(end)
	s.replBytes.Add(uint64(len(env.Payload)))
	a, err := repl.UnmarshalAck(env.Payload)
	s.ep.PutBuf(env.Payload)
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

// traceShip records the replication leg of a traced request: the window
// from ship start to the processing of the follower's ack.
func (s *Server) traceShip(start, end sim.Cycles) {
	if s.curTrace == 0 || s.tr == nil {
		return
	}
	s.tr.Record(trace.Span{
		Trace: s.curTrace, ID: s.tem.Next(), Parent: s.curParent,
		Kind: trace.KindRepl, Name: "ship+ack", Where: ^int32(s.cfg.ID),
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
//
// Like Recover, the restart begins no earlier than at, the caller's clock. It
// returns the promotion's work and the time it ended.
func (s *Server) Promote(c *wal.Checkpoint, snapBytes int, at sim.Cycles) (work, end sim.Cycles, err error) {
	end, err = s.restart(at, func() (*wal.Checkpoint, sim.Cycles, error) {
		if err := s.wal.WriteCheckpoint(c); err != nil {
			return nil, 0, fmt.Errorf("server %d: promote checkpoint: %w", s.cfg.ID, err)
		}
		s.checkpoints.Add(1)
		// The old replica relationship died with the old incarnation: the
		// follower's copy is sealed and consumed. Re-establish from scratch.
		s.MarkReplResync()
		s.replLastLSN.Store(s.wal.Stats().LastLSN)

		// The promotion's critical path: install the snapshot (the same
		// per-byte cost replay charges for a checkpoint load) and write it
		// back out as the new checkpoint. Crucially there is no per-record
		// replay term — the follower already did that work off the critical
		// path, as each batch arrived.
		cost := &s.cfg.Machine.Cost
		work = s.wal.ReplayCost(0, 0, snapBytes) + sim.LineCost(cost.WalPerLine, int(s.wal.Stats().CheckpointBytes)) + cost.WalFlush
		return c, work, nil
	})
	return work, end, err
}

// reclaimBlocks rebuilds the partition free list around the runs the
// current inode table's block maps hold (part of every restart).
func (s *Server) reclaimBlocks() {
	var inUse []ncc.Extent
	s.inodes.Range(func(_ uint64, ino *inode) bool {
		ino.blocks.Runs(func(e ncc.Extent) bool {
			inUse = append(inUse, e)
			return true
		})
		return true
	})
	s.cfg.Partition.Reclaim(inUse)
}
