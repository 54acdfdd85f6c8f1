package core

import (
	"fmt"

	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Failover (DESIGN.md §12): every server ships its committed WAL records to
// the next server in the fleet ring, which keeps a warm Follower replica.
// When a server dies, Failover seals that replica and runs an epoch
// transition (transition.go) over the running survivors whose install step
// boots the replica's snapshot in the crashed server's own object —
// promotion without the log replay. Clients reroute through the same EEPOCH
// refresh-and-retry they already use for shard migration; the crashed
// server's queued requests are served by the promoted incarnation.

// FailoverReport describes one completed failover.
type FailoverReport struct {
	// Server is the promoted (previously crashed) server.
	Server int
	// Follower is the server that held the replica.
	Follower int
	// Fallback reports that the replica was unusable (follower down, or
	// never resynced) and the server was rebuilt by WAL replay instead.
	Fallback bool
	// LastLSN is the primary's durable log horizon at the crash;
	// DurableLSN is the replica's horizon at the seal. Their difference is
	// LostRecords, which must be zero: every client reply waited for the
	// follower's ack, and a fallback replays a log that has everything.
	LastLSN     uint64
	DurableLSN  uint64
	LostRecords uint64
	// StallCycles is the promotion's (or fallback replay's) critical-path
	// work: the window in which the server answered nothing.
	StallCycles sim.Cycles
	// Epoch is the placement epoch published by the promotion (unchanged
	// by a fallback, which restores complete state).
	Epoch uint64
}

// followerOf returns the fleet-ring follower of server id.
func (s *System) followerOf(id int) int {
	return (id + 1) % len(s.servers)
}

// FollowerOf returns which server keeps the replica for server id, or -1
// when replication is disabled.
func (s *System) FollowerOf(id int) int {
	if !s.cfg.Replication.Enabled() || id < 0 || id >= len(s.servers) {
		return -1
	}
	return s.followerOf(id)
}

// wireReplication points every server's shipper at its fleet-ring follower.
// Called at build time and again after membership grows (the ring closes
// through the new tail).
func (s *System) wireReplication() {
	if !s.cfg.Replication.Enabled() {
		return
	}
	n := len(s.servers)
	for i, srv := range s.servers {
		f := s.servers[(i+1)%n]
		fep, ok := f.ReplEndpointID()
		if !ok {
			continue
		}
		srv.SetReplTarget(&server.ReplTarget{ID: (i + 1) % n, EP: fep, Down: f.Crashed})
	}
}

// Failover promotes the replica of crashed server id: seal the follower's
// copy, then run a transition that freezes the running survivors, publishes a
// bumped placement epoch, installs the snapshot into the crashed server's
// object under a fresh incarnation, and commits the survivors. If the replica
// is unusable — the follower is down too, or it never completed a resync —
// the server is rebuilt from its own write-ahead log instead (Fallback in the
// report), which preserves the no-acked-write-lost guarantee because the log
// holds every acknowledged record by construction.
//
// A crash mid-transition leaves it pending, like a migration's, and the
// crashed server's Recover resumes it. Transitions already pending do not
// block failover: they are re-stamped past the promotion's epoch and driven
// after it.
func (s *System) Failover(id int) (FailoverReport, error) {
	var rep FailoverReport
	if err := s.checkServer(id); err != nil {
		return rep, err
	}
	if !s.cfg.Replication.Enabled() {
		return rep, fmt.Errorf("core: replication is disabled; enable Config.Replication to use Failover")
	}
	s.elMu.Lock()
	defer s.elMu.Unlock()
	srv := s.servers[id]
	if !srv.Crashed() {
		return rep, fmt.Errorf("core: server %d is running; Failover promotes the replica of a crashed server", id)
	}
	fid := s.followerOf(id)
	rep = FailoverReport{Server: id, Follower: fid, LastLSN: srv.WalStats().LastLSN}
	start := s.MaxServerClock()

	// Seal the replica. The observer fires first so fault injection can
	// kill the follower at exactly this boundary; a dead follower is then
	// seen by the Crashed check and routes to the fallback.
	s.observe("seal", fid)
	snap, snapBytes, durable := s.sealFollower(id, fid)

	if snap == nil {
		rep.Fallback = true
		st, err := srv.Recover()
		if err != nil {
			return rep, fmt.Errorf("core: failover fallback replay on server %d: %w", id, err)
		}
		rep.StallCycles = st.Cycles
		rep.DurableLSN = rep.LastLSN
		rep.Epoch = s.routing.Load().Map.Epoch()
		s.traceFailover(start, "fallback", id)
		s.restarted(id)
		if err := s.resume(); err != nil {
			return rep, fmt.Errorf("core: resuming interrupted transition after failover: %w", err)
		}
		return rep, nil
	}

	rep.DurableLSN = durable
	if rep.LastLSN > durable {
		rep.LostRecords = rep.LastLSN - durable
	}

	// Bump the epoch past everything published or pending: a pending
	// transition may already have stamped its servers with its own
	// (unpublished) epoch, so the promotion supersedes that too, and the
	// pending ones are re-stamped past the bump — same membership change,
	// same routes — so the fleet still accepts them after it.
	cur := s.routing.Load().Map
	bump := cur.Epoch()
	for _, p := range s.pending {
		bump = max(bump, p.newMap.Epoch())
	}
	for i, p := range s.pending {
		p.newMap = p.newMap.WithEpoch(bump + 2 + uint64(i))
	}

	// The survivors adopt the bumped epoch too, or they would answer EEPOCH
	// to rerouted clients forever; with an unchanged map no entries move.
	t := &transition{newMap: cur.WithEpoch(bump + 1), installOn: id}
	for i := range s.servers {
		if i != id && !s.servers[i].Crashed() {
			t.servers = append(t.servers, i)
		}
	}
	t.install = func(m *place.Map) error {
		snap.Epoch, snap.PlaceMap = m.Epoch(), m.Encode()
		work, err := srv.Promote(snap, snapBytes)
		rep.StallCycles = work
		return err
	}
	rep.Epoch = t.newMap.Epoch()
	s.pending = append([]*transition{t}, s.pending...)
	if err := s.resume(); err != nil {
		return rep, fmt.Errorf("core: failover of server %d: %w", id, err)
	}
	s.traceFailover(start, "promote", id)
	return rep, nil
}

// sealFollower asks the follower's replication plane to seal and snapshot
// its replica of primary id. A nil snapshot means the replica is unusable
// (follower down, replica missing or never resynced, or a decode failure)
// and the caller must fall back to log replay.
func (s *System) sealFollower(id, fid int) (*wal.Checkpoint, int, uint64) {
	fep, ok := s.servers[fid].ReplEndpointID()
	if !ok {
		return nil, 0, 0
	}
	m := repl.Msg{Primary: int32(id)}
	var resp proto.Response
	if s.ctlRPC(fid, fep, &proto.Request{Op: proto.OpReplSeal, Data: m.AppendTo(nil)}, &resp) != nil {
		return nil, 0, 0
	}
	var sr repl.SealReply
	if err := repl.UnmarshalSealReplyInto(&sr, resp.Data); err != nil || len(sr.Snap) == 0 {
		return nil, 0, 0
	}
	c, err := wal.UnmarshalCheckpoint(sr.Snap)
	if err != nil {
		return nil, 0, 0
	}
	return c, len(sr.Snap), sr.Durable
}

// traceFailover records the failover window as a root span on the control
// plane's timeline.
func (s *System) traceFailover(start sim.Cycles, name string, srv int) {
	if s.tracer == nil {
		return
	}
	id := s.failEm.Next()
	s.tracer.Record(trace.Span{
		Trace: id, ID: id,
		Kind: trace.KindFailover, Name: name, Where: ^int32(srv),
		Start: start, End: s.MaxServerClock(),
	})
}

// ReplStats is the deployment-level replication introspection surface: one
// entry per server, pairing the primary-side shipping horizons with the
// identity of the follower that holds the replica.
type ReplStats struct {
	Server   int
	Follower int
	// LastLSN is the last record the primary committed; Durable is the
	// horizon its follower has acked. Lag is their difference.
	LastLSN uint64
	Durable uint64
	Ships   uint64
	Resyncs uint64
}

// Lag returns how many committed records the follower has not acked.
func (r ReplStats) Lag() uint64 {
	if r.LastLSN > r.Durable {
		return r.LastLSN - r.Durable
	}
	return 0
}

// ReplicaStats reports each server's replication horizons (nil when
// replication is disabled).
func (s *System) ReplicaStats() []ReplStats {
	if !s.cfg.Replication.Enabled() {
		return nil
	}
	out := make([]ReplStats, len(s.servers))
	for i, srv := range s.servers {
		st := srv.Stats()
		out[i] = ReplStats{
			Server:   i,
			Follower: s.followerOf(i),
			LastLSN:  st.ReplLastLSN,
			Durable:  st.ReplDurable,
			Ships:    st.ReplShips,
			Resyncs:  st.ReplResyncs,
		}
	}
	return out
}

// Replication returns the deployment's replication configuration (Mode Off
// when disabled).
func (s *System) Replication() repl.Config { return s.cfg.Replication }
