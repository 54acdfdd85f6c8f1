package core

import (
	"fmt"
	"sort"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/place"
	"repro/internal/server"
)

// Elastic deployments (DESIGN.md §9): servers can be added to and drained
// from a running system. Only directory-entry shards of distributed
// directories move; inodes never migrate — an InodeID permanently names
// (server, local), so a drained server keeps running and serving the inodes
// it owns until their files disappear. A membership change is an epoch
// transition (transition.go) whose donors are the old members.

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

// AddServer spins up one new file server on the running deployment and
// migrates its share of the directory-entry shards onto it. It returns the
// new server's id. If a server crash interrupts the migration, the new
// server is already part of the fleet, the error names the obstacle, and
// ResumeMigration finishes the job after recovery.
func (s *System) AddServer() (int, error) {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	if len(s.pending) > 0 {
		return -1, fmt.Errorf("core: a transition is pending; recover the crashed server and call ResumeMigration")
	}
	if !s.started {
		// A transition RPCs into the servers' request loops; without Start
		// they would never answer.
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
		Repl:            s.cfg.Replication.Mode,
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
	if len(s.pending) > 0 {
		return fmt.Errorf("core: a transition is pending; recover the crashed server and call ResumeMigration")
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

// migrateTo records the membership change as the pending transition and
// drives it: every member of the old or new map is frozen and committed,
// and the old members are pulled from. Caller holds elMu.
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
	s.pending = []*transition{{newMap: newMap, servers: servers, donors: oldMembers}}
	return s.resume()
}
