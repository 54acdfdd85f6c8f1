package core

import (
	"fmt"
	"sort"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/server"
)

// Elastic deployments (DESIGN.md §9): servers can be added to and drained
// from a running system. Only directory-entry shards of distributed
// directories move; inodes never migrate — an InodeID permanently names
// (server, local), so a drained server keeps running and serving the inodes
// it owns until their files disappear.
//
// The migration is client-driven in the paper's sense: the deployment's
// control plane speaks to each server individually over the normal request
// path, and servers never talk to each other. The protocol is
//
//	FREEZE every involved server   (entry mutations park)
//	PULL   from every old member   (copy out the entries that move)
//	publish the new routing        (clients adopt the next epoch)
//	COMMIT every involved server   (install/drop entries, adopt the epoch)
//
// A crash of a server mid-protocol leaves the migration pending: the failed
// step returns an error, and after the server recovers, ResumeMigration
// re-drives the protocol. Every step is idempotent — re-freezing is a no-op,
// re-pulling is a read, re-committing re-installs the same entries — so the
// resumed run converges, and each server's write-ahead log puts it on
// exactly one side of the epoch boundary.

// migration is one in-flight membership change.
type migration struct {
	newMap *place.Map
	// oldMembers and servers (old ∪ new members) are captured before the
	// new routing is published, so a resumed run still knows both sides.
	oldMembers []int
	servers    []int
	// incoming holds the pulled entries grouped by destination. Pulling
	// happens once; a resumed run reuses the saved transfers because a
	// donor that already committed no longer holds its outgoing entries.
	incoming map[int][]proto.MigEntry
	// marked and deadDirs are the union of the old members' in-flight
	// rmdir marks and tombstones, replicated to every involved server at
	// commit so rmdir semantics survive the ownership change.
	marked   []proto.InodeID
	deadDirs []proto.InodeID
	pulled   bool
}

// Routing implements client.RoutingProvider: the published snapshot every
// client caches and refreshes from on EEPOCH.
func (s *System) Routing() *client.Routing { return s.routing.Load() }

// publishRouting swaps the published routing snapshot.
func (s *System) publishRouting(m *place.Map) {
	s.routing.Store(&client.Routing{
		Map:     m,
		Servers: append([]msg.EndpointID(nil), s.serverEPs...),
		Cores:   append([]int(nil), s.serverCores...),
	})
}

// Epoch returns the deployment's current placement epoch.
func (s *System) Epoch() uint64 { return s.routing.Load().Map.Epoch() }

// Members returns the server ids currently owning directory-entry shards
// (drained servers are running but absent here).
func (s *System) Members() []int {
	ms := s.routing.Load().Map.Members()
	out := make([]int, len(ms))
	for i, id := range ms {
		out[i] = int(id)
	}
	return out
}

// PlacementPolicy returns the deployment's shard-placement policy.
func (s *System) PlacementPolicy() place.Policy { return s.routing.Load().Map.Policy() }

// MigrationPending reports whether an interrupted migration awaits
// ResumeMigration.
func (s *System) MigrationPending() bool {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	return s.pendingMig != nil
}

// SetMigrationObserver installs a hook called before each migration step
// ("freeze", "pull", "publish", "commit") with the target server id (-1 for
// publish). Used by fault-injection tests and operational tracing.
func (s *System) SetMigrationObserver(fn func(stage string, srv int)) {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	s.migObserver = fn
}

func (s *System) observe(stage string, srv int) {
	if s.migObserver != nil {
		s.migObserver(stage, srv)
	}
}

// AddServer spins up one new file server on the running deployment and
// migrates its share of the directory-entry shards onto it. It returns the
// new server's id. If a server crash interrupts the migration, the new
// server is already part of the fleet, the error names the obstacle, and
// ResumeMigration finishes the job after recovery.
func (s *System) AddServer() (int, error) {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	if s.pendingMig != nil {
		return -1, fmt.Errorf("core: a migration is pending; recover the crashed server and call ResumeMigration")
	}
	if !s.started {
		// The migration protocol RPCs into the servers' request loops;
		// without Start they would never answer.
		return -1, fmt.Errorf("core: system not started")
	}
	if !s.cfg.Timeshare {
		return -1, fmt.Errorf("core: AddServer requires the timeshare configuration (split pins servers to dedicated cores at boot)")
	}
	if len(s.servers) >= s.cfg.MaxServers {
		return -1, fmt.Errorf("core: server limit reached (%d); raise Config.MaxServers", s.cfg.MaxServers)
	}

	id := len(s.servers)
	cur := s.routing.Load().Map
	log, err := newServerLog(s.cfg, s.machine.Cost, id)
	if err != nil {
		return -1, err
	}
	core := id % s.cfg.Cores
	srv := server.New(server.Config{
		ID:              id,
		Core:            core,
		NumServers:      s.cfg.Servers,
		Machine:         s.machine,
		Network:         s.network,
		DRAM:            s.dram,
		Partition:       s.parts[id],
		Registry:        s.registry,
		CoLocated:       s.cfg.Timeshare,
		RootDistributed: false,
		Log:             log,
		Placement:       cur,
		Repl:            s.replOptions(),
	})
	s.servers = append(s.servers, srv)
	s.serverEPs = append(s.serverEPs, srv.EndpointID())
	s.serverCores = append(s.serverCores, core)
	srv.Start()
	// Close the follower ring through the new tail: the old tail now ships
	// to the newcomer and the newcomer ships to server 0.
	s.wireReplication()
	// Re-publish at the current epoch first so every client that refreshes
	// can already reach the new endpoint.
	s.publishRouting(cur)
	return id, s.migrateTo(cur.Add(int32(id)))
}

// RemoveServer drains server id: its directory-entry shards migrate to the
// remaining members and it leaves the placement map, receiving no new
// entries or inodes. The server keeps running to serve the inodes it
// already owns — inode ids are stable and never migrate (DESIGN.md §3, §9).
func (s *System) RemoveServer(id int) error {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	if s.pendingMig != nil {
		return fmt.Errorf("core: a migration is pending; recover the crashed server and call ResumeMigration")
	}
	if !s.started {
		return fmt.Errorf("core: system not started")
	}
	cur := s.routing.Load().Map
	if !cur.Contains(int32(id)) {
		return fmt.Errorf("core: server %d is not a placement member", id)
	}
	if cur.NumMembers() <= 1 {
		return fmt.Errorf("core: cannot drain the last placement member")
	}
	return s.migrateTo(cur.Remove(int32(id)))
}

// ResumeMigration re-drives an interrupted migration (after recovering the
// crashed server). It is a no-op when nothing is pending.
func (s *System) ResumeMigration() error {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	if s.pendingMig == nil {
		return nil
	}
	return s.driveMigration()
}

// migrateTo records the pending migration and drives it. Caller holds elMu.
func (s *System) migrateTo(newMap *place.Map) error {
	old := s.routing.Load().Map
	union := make(map[int]bool)
	var oldMembers []int
	for _, id := range old.Members() {
		oldMembers = append(oldMembers, int(id))
		union[int(id)] = true
	}
	for _, id := range newMap.Members() {
		union[int(id)] = true
	}
	servers := make([]int, 0, len(union))
	for id := range union {
		servers = append(servers, id)
	}
	sort.Ints(servers)
	s.pendingMig = &migration{
		newMap:     newMap,
		oldMembers: oldMembers,
		servers:    servers,
		incoming:   make(map[int][]proto.MigEntry),
	}
	return s.driveMigration()
}

// driveMigration runs (or resumes) the freeze → pull → publish → commit
// protocol for the pending migration. Caller holds elMu.
func (s *System) driveMigration() error {
	mig := s.pendingMig
	epoch := mig.newMap.Epoch()
	blob := mig.newMap.Encode()

	for _, id := range mig.servers {
		s.observe("freeze", id)
		if _, err := s.shardRPC(id, &proto.Request{Op: proto.OpShardFreeze, Epoch: epoch}); err != nil {
			return fmt.Errorf("core: freeze server %d for epoch %d: %w", id, epoch, err)
		}
	}

	if !mig.pulled {
		req := &proto.ShardMsg{MapBlob: blob}
		seenMarked := make(map[proto.InodeID]bool)
		seenDead := make(map[proto.InodeID]bool)
		for _, id := range mig.oldMembers {
			s.observe("pull", id)
			resp, err := s.shardRPC(id, &proto.Request{Op: proto.OpShardPull, Epoch: epoch, Data: req.Marshal()})
			if err != nil {
				return fmt.Errorf("core: pull shards from server %d: %w", id, err)
			}
			m, derr := proto.UnmarshalShardMsg(resp.Data)
			if derr != nil {
				return fmt.Errorf("core: pull reply from server %d: %w", id, derr)
			}
			for _, ent := range m.Entries {
				dst := int(mig.newMap.Route(proto.Hash(ent.Dir, ent.Name)))
				mig.incoming[dst] = append(mig.incoming[dst], ent)
			}
			for _, dir := range m.Marked {
				if !seenMarked[dir] {
					seenMarked[dir] = true
					mig.marked = append(mig.marked, dir)
				}
			}
			for _, dir := range m.DeadDirs {
				if !seenDead[dir] {
					seenDead[dir] = true
					mig.deadDirs = append(mig.deadDirs, dir)
				}
			}
		}
		mig.pulled = true
	}

	// Publish before committing: clients that refresh now route at the new
	// epoch and park at the still-frozen new owners, so no window exists
	// in which an entry is served by nobody.
	s.observe("publish", -1)
	s.publishRouting(mig.newMap)

	for _, id := range mig.servers {
		s.observe("commit", id)
		sm := &proto.ShardMsg{
			MapBlob:  blob,
			Entries:  mig.incoming[id],
			Marked:   mig.marked,
			DeadDirs: mig.deadDirs,
		}
		if _, err := s.shardRPC(id, &proto.Request{Op: proto.OpShardCommit, Epoch: epoch, Data: sm.Marshal()}); err != nil {
			return fmt.Errorf("core: commit epoch %d on server %d: %w", epoch, id, err)
		}
	}
	s.pendingMig = nil
	return nil
}

// shardRPC sends one control-plane request to a server over the normal
// request path (it serializes with in-flight client operations). A crashed
// target is reported as an error instead of blocking forever on a closed
// request loop.
func (s *System) shardRPC(id int, req *proto.Request) (*proto.Response, error) {
	if id < 0 || id >= len(s.servers) {
		return nil, fmt.Errorf("no server %d (have %d)", id, len(s.servers))
	}
	resp := new(proto.Response)
	return resp, s.ctlRPC(id, s.serverEPs[id], req, resp)
}
