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
// When a server dies, Failover seals that replica, publishes a bumped
// placement epoch, and installs the replica's snapshot into the crashed
// server's own object — promotion without the log replay. Clients reroute
// through the same EEPOCH refresh-and-retry they already use for shard
// migration; the crashed server's queued requests are served by the
// promoted incarnation.

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
	// LostRecords — zero under sync replication and under fallback (the
	// log has everything), at most the configured window under async.
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

// wireReplication points every server's shipper at its fleet-ring follower
// and registers the fleet with the failure detector. Called at build time
// and again after membership grows (the ring closes through the new tail).
func (s *System) wireReplication() {
	if !s.cfg.Replication.Enabled() {
		return
	}
	now := s.MaxServerClock()
	n := len(s.servers)
	for i, srv := range s.servers {
		f := s.servers[(i+1)%n]
		fep, ok := f.ReplEndpointID()
		if !ok {
			continue
		}
		srv.SetReplTarget(&server.ReplTarget{ID: (i + 1) % n, EP: fep, Down: f.Crashed})
		if ep, ok := srv.ReplEndpointID(); ok && s.mon != nil {
			s.mon.Track(i, ep, now)
		}
	}
}

// replOptions translates the deployment replication knob into the
// per-server options.
func (s *System) replOptions() server.ReplOptions {
	if !s.cfg.Replication.Enabled() {
		return server.ReplOptions{}
	}
	return server.ReplOptions{Mode: s.cfg.Replication.Mode, Window: s.cfg.Replication.Window}
}

// Heartbeat advances the failure detector one beat at the fleet's current
// virtual time and returns the servers currently suspected dead (nil when
// replication is disabled — no detector runs, no pings are sent).
func (s *System) Heartbeat() []int {
	return s.HeartbeatAt(s.MaxServerClock())
}

// HeartbeatAt is Heartbeat at an explicit virtual time, for tests that
// drive the detector's clock directly.
func (s *System) HeartbeatAt(now sim.Cycles) []int {
	if s.mon == nil {
		return nil
	}
	s.mon.Tick(now)
	return s.mon.Suspected(now)
}

// ReplLastHeard returns the virtual time of the last heartbeat pong from
// server id, and whether one was ever heard.
func (s *System) ReplLastHeard(id int) (sim.Cycles, bool) {
	if s.mon == nil {
		return 0, false
	}
	return s.mon.LastHeard(id)
}

// SetFailoverObserver installs a hook called before each failover stage
// ("seal" with the follower id, "publish" with -1, "install" with the
// promoted server id). Used by fault-injection tests.
func (s *System) SetFailoverObserver(fn func(stage string, srv int)) {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	s.failObserver = fn
}

func (s *System) fobserve(stage string, srv int) {
	if s.failObserver != nil {
		s.failObserver(stage, srv)
	}
}

// Failover promotes the replica of crashed server id: seal the follower's
// copy, publish a bumped placement epoch, install the snapshot into the
// crashed server's object under a fresh incarnation. If the replica is
// unusable — the follower is down too, or it never completed a resync —
// the server is rebuilt from its own write-ahead log instead (Fallback in
// the report), which preserves the no-acked-write-lost guarantee because
// the log holds every acknowledged record by construction.
//
// An interrupted shard migration does not block failover: the promotion's
// epoch bump is taken above the pending migration's epoch, the pending map
// is re-stamped past the bump, and the migration is re-driven once the
// promoted server is back.
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
	s.fobserve("seal", fid)
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
		if s.pendingMig != nil {
			if err := s.driveMigration(); err != nil {
				return rep, fmt.Errorf("core: resuming interrupted migration after failover: %w", err)
			}
		}
		return rep, nil
	}

	rep.DurableLSN = durable
	if rep.LastLSN > durable {
		rep.LostRecords = rep.LastLSN - durable
	}

	// Bump the epoch past everything published or in flight: a pending
	// migration already stamped its servers with its own (unpublished)
	// epoch, and the promotion must supersede that too or the re-driven
	// migration would be rejected as stale.
	cur := s.routing.Load().Map
	bump := cur.Epoch()
	if s.pendingMig != nil && s.pendingMig.newMap.Epoch() > bump {
		bump = s.pendingMig.newMap.Epoch()
	}
	newMap := cur.WithEpoch(bump + 1)
	snap.Epoch = newMap.Epoch()
	snap.PlaceMap = newMap.Encode()

	// The survivors must adopt the bumped epoch too, or they would answer
	// EEPOCH to rerouted clients forever. The shard-migration protocol
	// already knows how to move a fleet across an epoch boundary; with an
	// unchanged map it moves zero entries: freeze the survivors, publish,
	// install the promoted server (which boots at the new epoch), then
	// commit the survivors. Requests that arrive mid-failover park at the
	// freeze and resume at the commit.
	survivors := make([]int, 0, len(s.servers)-1)
	for i := range s.servers {
		if i != id && !s.servers[i].Crashed() {
			survivors = append(survivors, i)
		}
	}
	epoch := newMap.Epoch()
	for _, sid := range survivors {
		if _, err := s.shardRPC(sid, &proto.Request{Op: proto.OpShardFreeze, Epoch: epoch}); err != nil {
			s.noteAdoptPending(newMap)
			return rep, fmt.Errorf("core: freeze server %d for failover epoch %d: %w", sid, epoch, err)
		}
	}

	// Publish before installing: clients that refresh now already route at
	// the promoted epoch, so the promoted server (which boots at that
	// epoch) never EEPOCHs them into a livelock.
	s.fobserve("publish", -1)
	s.publishRouting(newMap)

	s.fobserve("install", id)
	work, err := srv.Promote(snap, snapBytes)
	if err != nil {
		s.noteAdoptPending(newMap)
		return rep, fmt.Errorf("core: promote server %d: %w", id, err)
	}
	rep.StallCycles = work
	rep.Epoch = epoch

	if s.pendingMig != nil {
		// The pending migration's epoch is now below the published one;
		// re-stamp it past the bump (same membership change, same routes —
		// WithEpoch preserves both) before driving anything further, so a
		// crash in the commit loop below still leaves a resumable migration
		// at an epoch the fleet will accept.
		s.pendingMig.newMap = s.pendingMig.newMap.WithEpoch(newMap.Epoch() + 1)
	}

	blob := newMap.Encode()
	for _, sid := range survivors {
		sm := &proto.ShardMsg{MapBlob: blob}
		if _, err := s.shardRPC(sid, &proto.Request{Op: proto.OpShardCommit, Epoch: epoch, Data: sm.Marshal()}); err != nil {
			s.noteAdoptPending(newMap)
			return rep, fmt.Errorf("core: commit failover epoch %d on server %d: %w", epoch, sid, err)
		}
	}
	s.traceFailover(start, "promote", id)

	if s.pendingMig != nil {
		// Re-drive the interrupted migration inline. Membership mutators
		// hold elMu, so calling ResumeMigration here would self-deadlock.
		if err := s.driveMigration(); err != nil {
			return rep, fmt.Errorf("core: resuming interrupted migration after failover: %w", err)
		}
	}
	return rep, nil
}

// noteAdoptPending records the promotion's epoch adoption as a pending
// same-membership migration when a survivor crashed mid-failover (it could
// not be frozen or committed). ResumeMigration — run by hand or by the
// crashed server's Recover — then re-drives the adoption once the fleet is
// back: with an unchanged map the protocol moves zero entries, and servers
// that already adopted the epoch no-op every step. If a real migration is
// already pending, nothing is recorded — its re-driven run commits every
// member past the bump anyway, which subsumes the adoption.
func (s *System) noteAdoptPending(newMap *place.Map) {
	if s.pendingMig != nil {
		return
	}
	members := make([]int, 0, len(s.servers))
	for _, m := range newMap.Members() {
		members = append(members, int(m))
	}
	s.pendingMig = &migration{
		newMap:     newMap,
		oldMembers: members,
		servers:    members,
		incoming:   make(map[int][]proto.MigEntry),
		pulled:     true,
	}
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

// Replication returns the deployment's replication configuration
// (normalized; Mode Off when disabled).
func (s *System) Replication() repl.Config { return s.cfg.Replication }
