// Package core assembles a complete Hare deployment: the simulated machine,
// the shared buffer cache in DRAM, the message-passing network, the file
// servers, the per-core scheduling servers, and factories for client
// libraries.
//
// This is the paper's primary contribution wired together; the public `hare`
// package at the module root re-exports it as the library's API.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Techniques toggles the design techniques evaluated in §5.4 of the paper,
// plus the async RPC pipeline (DESIGN.md §7) and the zero-waste data path
// (DESIGN.md §8) this reproduction adds.
type Techniques struct {
	DirectoryDistribution bool // shard a directory's entries across servers (§3.3)
	DirectoryBroadcast    bool // contact all servers in parallel (§3.6.2)
	DirectAccess          bool // clients access the buffer cache directly (§3.2)
	DirectoryCache        bool // client-side lookup cache with invalidations (§3.6.1)
	CreationAffinity      bool // NUMA-aware placement of new inodes (§3.6.4)
	RPCPipelining         bool // async/batched RPCs, extend-ahead, readahead (DESIGN.md §7)
	DataPath              bool // dirty-line writeback + version-skip invalidation (DESIGN.md §8)
}

// AllTechniques enables everything (the standard Hare configuration).
func AllTechniques() Techniques {
	return Techniques{
		DirectoryDistribution: true,
		DirectoryBroadcast:    true,
		DirectAccess:          true,
		DirectoryCache:        true,
		CreationAffinity:      true,
		RPCPipelining:         true,
		DataPath:              true,
	}
}

// Config describes a Hare deployment.
type Config struct {
	// Cores is the total number of cores in the machine.
	Cores int
	// Servers is the number of file servers.
	Servers int
	// Timeshare selects the paper's timesharing configuration: every core
	// runs a file server alongside application processes. When false the
	// servers get dedicated cores (the "split" configuration) and
	// applications run on the remaining cores.
	Timeshare bool

	Techniques Techniques
	Placement  sched.Policy
	Seed       uint64

	// PlacePolicy selects how directory-entry shards are placed on servers
	// (DESIGN.md §9). The zero value, place.PolicyModulo, reproduces the
	// paper's hash % NSERVERS routing bit-for-bit; place.PolicyRing uses
	// consistent hashing so online membership changes move only ~1/N of
	// the shards.
	PlacePolicy place.Policy

	// MaxServers caps how many file servers the deployment can ever run
	// (the shared buffer cache is partitioned up front among that many).
	// Zero means Servers — no headroom, the static default. Raise it to
	// use System.AddServer.
	MaxServers int

	// CostModel overrides the default cycle cost model when non-nil.
	CostModel *sim.CostModel

	// BufferCacheBytes and BlockSize size the shared buffer cache; the
	// defaults are 256 MiB of 4 KiB blocks.
	BufferCacheBytes int64
	BlockSize        int

	// RootDistributed shards the root directory's entries across servers.
	RootDistributed bool

	// Durability configures the per-server write-ahead log (DESIGN.md §6).
	Durability Durability

	// Replication configures primary → follower WAL shipping and fast
	// failover (DESIGN.md §12). The zero value disables it. Requires
	// Durability (the shipped batches are the log's committed records)
	// and at least two servers (the follower ring needs somewhere to
	// point).
	Replication repl.Config

	// Trace configures request tracing and latency histograms (DESIGN.md
	// §11). The zero value disables tracing entirely: no tracer is built,
	// requests carry no trace context, and the virtual timeline is
	// bit-identical to an untraced deployment.
	Trace trace.Config
}

// Durability configures the write-ahead-log subsystem. The zero value
// disables it, matching the paper's in-memory-only design.
type Durability struct {
	// Enabled turns on per-server write-ahead logging, checkpoints, and
	// the Crash/Recover API.
	Enabled bool

	// GroupCommitInterval is ignored: a mutation commits when the flush
	// carrying its records ends, and that flush starts as soon as the log
	// device is free (DESIGN.md §6). The field remains only because
	// benchmark/ still assigns it, and goes with that assignment (ROADMAP).
	GroupCommitInterval sim.Cycles

	// CheckpointEvery automatically snapshots a server's state and
	// truncates its log after this many records. Zero means checkpoints
	// happen only via the Checkpoint API.
	CheckpointEvery int

	// SegmentBytes is the log segment rotation size (default 1 MiB).
	SegmentBytes int

	// Dir, when non-empty, stores each server's log and checkpoint as
	// real files under Dir/server-NN. Empty keeps them in memory (the
	// store then plays the role of a battery-backed log device: it
	// survives the simulated server crash, not the host process).
	//
	// To remount on-disk state after a host-process restart, use
	// CrashLosingMemory + Recover on every server: the simulated DRAM
	// did not survive the restart, so recovery must restore block
	// contents from the checkpoint, not assume they are still in memory.
	Dir string
}

// DefaultConfig mirrors the paper's standard setup: a 40-core machine in the
// timesharing configuration with every technique enabled.
func DefaultConfig() Config {
	return Config{
		Cores:      40,
		Servers:    40,
		Timeshare:  true,
		Techniques: AllTechniques(),
		Placement:  sched.PolicyRoundRobin,
	}
}

// normalize fills defaults and validates the configuration.
func (c *Config) normalize() error {
	if c.Cores <= 0 {
		return fmt.Errorf("core: config needs at least one core, got %d", c.Cores)
	}
	if c.Servers <= 0 {
		c.Servers = c.Cores
	}
	if c.BufferCacheBytes <= 0 {
		c.BufferCacheBytes = 256 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if !c.Timeshare {
		if c.Servers >= c.Cores {
			return fmt.Errorf("core: split configuration needs fewer servers (%d) than cores (%d)", c.Servers, c.Cores)
		}
	} else if c.Servers > c.Cores {
		return fmt.Errorf("core: timeshare configuration cannot run more servers (%d) than cores (%d)", c.Servers, c.Cores)
	}
	if c.MaxServers <= 0 {
		c.MaxServers = c.Servers
	}
	if c.MaxServers < c.Servers {
		return fmt.Errorf("core: MaxServers (%d) below the initial server count (%d)", c.MaxServers, c.Servers)
	}
	if c.Timeshare && c.MaxServers > c.Cores {
		return fmt.Errorf("core: timeshare configuration cannot grow to more servers (%d) than cores (%d)", c.MaxServers, c.Cores)
	}
	if c.Replication.Enabled() {
		if !c.Durability.Enabled {
			return fmt.Errorf("core: replication ships write-ahead-log records; enable Config.Durability")
		}
		if c.Servers < 2 {
			return fmt.Errorf("core: replication needs at least two servers, got %d", c.Servers)
		}
		c.Replication = c.Replication.Normalized()
	}
	return nil
}

// System is a running Hare deployment.
type System struct {
	cfg     Config
	machine *sim.Machine
	network *msg.Network
	dram    *ncc.DRAM
	caches  []*ncc.PrivateCache

	registry    *server.ClientRegistry
	servers     []*server.Server
	serverEPs   []msg.EndpointID
	serverCores []int
	parts       []*ncc.Partition

	// ctl is the control-plane endpoint used for checkpoint requests and
	// for driving shard migrations.
	ctl *msg.Endpoint

	// routing is the published routing snapshot clients cache and refresh
	// from on EEPOCH; elMu serializes membership changes, and pendingMig
	// holds an interrupted migration until ResumeMigration completes it
	// (DESIGN.md §9).
	routing     atomic.Pointer[client.Routing]
	elMu        sync.Mutex
	pendingMig  *migration
	migObserver func(stage string, srv int)

	// mon is the heartbeat failure detector (nil when replication is
	// disabled); failObserver hooks the failover stages for fault
	// injection, and failEm allocates failover-span ids.
	mon          *repl.Monitor
	failObserver func(stage string, srv int)
	failEm       *trace.Emitter

	ids      *client.IDAllocator
	procSys  *sched.HareSystem
	appCores []int

	// tracer is nil when Config.Trace is disabled; every layer treats a
	// nil tracer as "tracing off".
	tracer *trace.Tracer

	started bool
}

// New builds (but does not start) a Hare deployment.
func New(cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cost := sim.DefaultCostModel()
	if cfg.CostModel != nil {
		cost = *cfg.CostModel
	}
	topo := sim.TopologyForCores(cfg.Cores)
	machine := sim.NewMachine(topo, cost)

	numBlocks := int(cfg.BufferCacheBytes / int64(cfg.BlockSize))
	if numBlocks < cfg.MaxServers {
		numBlocks = cfg.MaxServers
	}
	dram := ncc.NewDRAM(numBlocks, cfg.BlockSize)
	// Partition the buffer cache among the maximum fleet size, so a server
	// added later finds its partition pre-carved (with the default
	// MaxServers == Servers this is exactly the static split).
	parts := ncc.PartitionDRAM(dram, cfg.MaxServers)

	network := msg.NewNetwork(msg.WrapMachine(machine))
	registry := server.NewClientRegistry()

	sys := &System{
		cfg:      cfg,
		machine:  machine,
		network:  network,
		dram:     dram,
		caches:   make([]*ncc.PrivateCache, cfg.Cores),
		registry: registry,
		parts:    parts,
		ids:      client.NewIDAllocator(1),
		tracer:   trace.New(cfg.Trace),
	}
	for i := range sys.caches {
		sys.caches[i] = ncc.NewPrivateCache(dram)
	}

	// Place servers and applications on cores.
	serverCores := make([]int, cfg.Servers)
	if cfg.Timeshare {
		for i := range serverCores {
			serverCores[i] = i % cfg.Cores
		}
		sys.appCores = allCores(cfg.Cores)
	} else {
		first := cfg.Cores - cfg.Servers
		for i := range serverCores {
			serverCores[i] = first + i
		}
		sys.appCores = allCores(first)
	}
	sys.serverCores = serverCores

	rootDist := cfg.RootDistributed && cfg.Techniques.DirectoryDistribution
	bootMap := place.Initial(cfg.PlacePolicy, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		log, err := newServerLog(cfg, cost, i)
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{
			ID:              i,
			Core:            serverCores[i],
			NumServers:      cfg.Servers,
			Machine:         machine,
			Network:         network,
			DRAM:            dram,
			Partition:       parts[i],
			Registry:        registry,
			CoLocated:       cfg.Timeshare,
			RootDistributed: rootDist,
			Log:             log,
			Placement:       bootMap,
			Tracer:          sys.tracer,
			Repl:            sys.replOptions(),
		})
		sys.servers = append(sys.servers, srv)
		sys.serverEPs = append(sys.serverEPs, srv.EndpointID())
	}
	sys.ctl = network.NewEndpoint(0)
	sys.ctl.Transient = true // every send is ctlRPC's, at the target's own clock
	sys.publishRouting(bootMap)
	if cfg.Replication.Enabled() {
		sys.mon = repl.NewMonitor(network, network.NewEndpoint(0), cfg.Replication)
		sys.failEm = trace.ClientEmitter(-1)
		sys.wireReplication()
	}

	sys.procSys = sched.NewHareSystem(sched.HareConfig{
		Machine:   machine,
		Network:   network,
		AppCores:  sys.appCores,
		Policy:    cfg.Placement,
		Seed:      cfg.Seed,
		NewClient: sys.newProcClient,
	})
	return sys, nil
}

func allCores(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Start launches the file servers and scheduling servers.
func (s *System) Start() {
	if s.started {
		return
	}
	for _, srv := range s.servers {
		srv.Start()
	}
	s.procSys.Start()
	s.started = true
}

// Stop shuts the deployment down. All application processes must have exited.
func (s *System) Stop() {
	if !s.started {
		return
	}
	s.procSys.Stop()
	for _, srv := range s.servers {
		srv.Stop()
	}
	s.started = false
}

// SetParallel installs (on) or removes (off) the parallel virtual-time
// engine (DESIGN.md §13): with the gate installed, file servers serve their
// inboxes in deterministic (arrival, sender, sequence) order as soon as the
// conservative lane frontiers allow, so endpoints on different OS threads
// advance concurrently instead of one global virtual-time ping-pong chain.
//
// The full control plane participates in the lane protocol: replication
// shipping and acks, heartbeats, crash/recovery, failover promotion, and
// elastic shard migration all send from transient endpoints (their lanes
// are in the gate only while an exchange of their own is outstanding,
// msg.Endpoint.Transient), so parallel runs produce namespaces
// byte-identical to serialized runs with any of those events on the
// schedule. Serialized mode, the default, never installs a gate and stays
// bit-identical to deployments that never call this.
//
// Toggling requires a quiescent deployment: no client processes running and
// no migration (or crash-interrupted adoption) pending. Otherwise running
// lanes would be handed to a gate that never saw them join — SetParallel
// refuses with an error instead of racing.
func (s *System) SetParallel(on bool) error {
	if on == s.Parallel() {
		return nil
	}
	if s.procSys != nil {
		if n := s.procSys.Live(); n > 0 {
			return fmt.Errorf("core: cannot toggle parallel mode with %d client process(es) live; wait for them to exit", n)
		}
	}
	if s.MigrationPending() {
		return fmt.Errorf("core: cannot toggle parallel mode with a shard migration or adoption pending; ResumeMigration first")
	}
	if !on {
		s.network.SetGate(nil)
		return nil
	}
	s.network.SetGate(sim.NewGate())
	return nil
}

// Parallel reports whether the parallel virtual-time engine is installed.
func (s *System) Parallel() bool { return s.network.Gate() != nil }

// Config returns the deployment's configuration (after normalization).
func (s *System) Config() Config { return s.cfg }

// Machine returns the simulated machine.
func (s *System) Machine() *sim.Machine { return s.machine }

// Network returns the message-passing network.
func (s *System) Network() *msg.Network { return s.network }

// Procs returns the Hare process system (scheduling servers).
func (s *System) Procs() *sched.HareSystem { return s.procSys }

// AppCores returns the cores available to application processes.
func (s *System) AppCores() []int {
	out := make([]int, len(s.appCores))
	copy(out, s.appCores)
	return out
}

// clientOptions translates the technique toggles into client options.
func (s *System) clientOptions() client.Options {
	t := s.cfg.Techniques
	return client.Options{
		DirDistribution:  t.DirectoryDistribution,
		DirCache:         t.DirectoryCache,
		DirBroadcast:     t.DirectoryBroadcast,
		DirectAccess:     t.DirectAccess,
		CreationAffinity: t.CreationAffinity,
		Pipelining:       t.RPCPipelining,
		DataPath:         t.DataPath,
	}
}

// NewClient creates a bare client library pinned to the given core, for
// direct library callers: under the parallel engine it parks its lane
// between operations (client.Config.AutoPark) so a quiescent client never
// wedges out-of-band control-plane calls. Scheduler-managed processes get
// their clients from newProcClient instead.
func (s *System) NewClient(core int) *client.Client {
	c := s.newProcClient(core)
	c.SetAutoPark(true)
	return c
}

// newProcClient creates a scheduler-managed client: the process scheduler
// owns its lane from start to exit and around every blocked wait (sched).
func (s *System) newProcClient(core int) *client.Client {
	if core < 0 || core >= s.cfg.Cores {
		core = 0
	}
	return client.New(client.Config{
		ID:           s.ids.Next(),
		Core:         core,
		Machine:      s.machine,
		Network:      s.network,
		DRAM:         s.dram,
		Cache:        s.caches[core],
		Registry:     s.registry,
		Provider:     s,
		Root:         proto.RootInode,
		RootDist:     s.cfg.RootDistributed && s.cfg.Techniques.DirectoryDistribution,
		Options:      s.clientOptions(),
		IDs:          s.ids,
		CacheForCore: s.cacheForCore,
		Tracer:       s.tracer,
	})
}

func (s *System) cacheForCore(core int) *ncc.PrivateCache {
	if core < 0 || core >= len(s.caches) {
		core = 0
	}
	return s.caches[core]
}

// MessageEconomy summarizes the deployment's cumulative message traffic and
// data movement: network message and byte counts, the servers' batched-sub-op
// and queueing-delay totals, and the per-core caches' line counters (written
// back, invalidated, preserved by version-matched opens). Client RPC counts
// are tracked per client library; the network's message count (requests +
// replies + callbacks) stands in for them here, since the harness needs a
// single deployment-wide view.
func (s *System) MessageEconomy() stats.Economy {
	e := stats.Economy{
		Msgs:       s.network.MessageCount(),
		Bytes:      s.network.ByteCount(),
		ClientRPCs: s.network.RequestCount(),
	}
	for _, srv := range s.servers {
		st := srv.Stats()
		e.BatchedOps += st.BatchedOps
		e.QueueCycles += uint64(st.QueueDelay)
		e.MigEntries += st.MigOutEntries
		e.ReplMsgs += st.ReplShips + st.ReplAcks
		e.ReplBytes += st.ReplBytes
	}
	for _, cache := range s.caches {
		st := cache.Stats()
		e.WbLines += st.LinesWB
		e.InvLines += st.LinesInv
		e.SkipLines += st.LinesSkipped
	}
	return e
}

// ServerStats returns per-server counters (op counts, invalidations sent).
func (s *System) ServerStats() []server.Stats {
	out := make([]server.Stats, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.Stats()
	}
	return out
}

// ServerLoads returns the total requests each server has served (batch
// sub-operations included); the benchmark harness derives the per-server
// load-imbalance metric (max/mean) from snapshots of it.
func (s *System) ServerLoads() []uint64 {
	out := make([]uint64, len(s.servers))
	for i, srv := range s.servers {
		st := srv.Stats()
		for _, n := range st.Ops {
			out[i] += n
		}
	}
	return out
}

// MaxServerClock returns the latest virtual time reached by any file server.
func (s *System) MaxServerClock() sim.Cycles {
	var max sim.Cycles
	for _, srv := range s.servers {
		if c := srv.Clock(); c > max {
			max = c
		}
	}
	return max
}

// Seconds converts cycles to seconds under the deployment's cost model.
func (s *System) Seconds(c sim.Cycles) float64 { return s.machine.Cost.Seconds(c) }

// Tracer returns the deployment's tracer, or nil when Config.Trace is
// disabled. The harnesses read latency histograms and export span trees
// through it.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// QueueDepths snapshots each server's inbox depth (requests delivered but
// not yet serviced). It is a live introspection surface for the shell's
// `top` command; depths race with the servers' request loops and are only
// advisory.
func (s *System) QueueDepths() []int {
	out := make([]int, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.QueueDepth()
	}
	return out
}

// newServerLog builds one server's write-ahead log, or returns nil when
// durability is disabled.
func newServerLog(cfg Config, cost sim.CostModel, id int) (*wal.Log, error) {
	d := cfg.Durability
	if !d.Enabled {
		return nil, nil
	}
	var store wal.Store = wal.NewMemStore()
	if d.Dir != "" {
		fs, err := wal.NewFileStore(filepath.Join(d.Dir, fmt.Sprintf("server-%02d", id)))
		if err != nil {
			return nil, fmt.Errorf("core: server %d log store: %w", id, err)
		}
		store = fs
	}
	log, err := wal.Open(wal.Config{
		Store:           store,
		SegmentBytes:    d.SegmentBytes,
		CheckpointEvery: d.CheckpointEvery,
		FlushCycles:     cost.WalFlush,
		AppendPerLine:   cost.WalPerLine,
		ReplayPerRecord: cost.WalReplayPerRec,
	})
	if err != nil {
		return nil, fmt.Errorf("core: server %d log: %w", id, err)
	}
	return log, nil
}

// NumServers returns the number of file servers in the deployment.
func (s *System) NumServers() int { return len(s.servers) }

// checkServer validates a fault-injection target.
func (s *System) checkServer(id int) error {
	if !s.cfg.Durability.Enabled {
		return fmt.Errorf("core: durability is disabled; enable Config.Durability to use Crash/Recover/Checkpoint")
	}
	if !s.started {
		// Crashing a never-started server would wait forever for a
		// request loop that does not exist.
		return fmt.Errorf("core: system not started")
	}
	if id < 0 || id >= len(s.servers) {
		return fmt.Errorf("core: no server %d (have %d)", id, len(s.servers))
	}
	return nil
}

// Crash kills file server id as if its process died: its in-memory state is
// dropped and its request loop stops. Requests sent to a crashed server
// (and any already queued) wait in its inbox and are served after Recover;
// requests parked inside the server (blocked pipe reads, rmdir waiters) are
// lost, so callers should quiesce pipe users before injecting faults.
//
// The shared DRAM — including the crashed server's buffer-cache partition —
// survives, the way memory owned by no process survives a process crash.
// Use CrashLosingMemory to take the partition down with the server.
func (s *System) Crash(id int) error {
	if err := s.checkServer(id); err != nil {
		return err
	}
	s.servers[id].Crash(false)
	return nil
}

// CrashLosingMemory crashes server id and wipes its DRAM partition,
// modelling the loss of the server's whole memory domain (a NUMA node
// losing power). Recovery then restores file contents from the checkpoint's
// block snapshots plus replayed write records; data written by clients
// directly to the buffer cache after the last checkpoint is lost, which is
// the documented durability contract for direct-access writes.
func (s *System) CrashLosingMemory(id int) error {
	if err := s.checkServer(id); err != nil {
		return err
	}
	s.servers[id].Crash(true)
	return nil
}

// Recover rebuilds a crashed server from its checkpoint and log and
// restarts it. Recovery is idempotent: a crash/recover cycle with no
// intervening mutations reproduces the same state. If the crash interrupted
// a shard migration, the migration is resumed once the server is back: its
// write-ahead log put it on exactly one side of the epoch boundary, and the
// resumed (idempotent) protocol carries it across.
func (s *System) Recover(id int) (wal.RecoveryStats, error) {
	if err := s.checkServer(id); err != nil {
		return wal.RecoveryStats{}, err
	}
	st, err := s.servers[id].Recover()
	if err != nil {
		return st, err
	}
	if s.MigrationPending() {
		if rerr := s.ResumeMigration(); rerr != nil {
			return st, fmt.Errorf("core: resuming interrupted migration after recovery: %w", rerr)
		}
	}
	return st, nil
}

// Crashed reports whether server id is currently down.
func (s *System) Crashed(id int) bool {
	if id < 0 || id >= len(s.servers) {
		return false
	}
	return s.servers[id].Crashed()
}

// Checkpoint asks a running server to snapshot its state and truncate its
// log. The request travels the normal control path (an RPC into the
// server's request loop), so it serializes with in-flight operations.
func (s *System) Checkpoint(id int) error {
	if err := s.checkServer(id); err != nil {
		return err
	}
	srv := s.servers[id]
	if srv.Crashed() {
		return fmt.Errorf("core: server %d is crashed; recover it before checkpointing", id)
	}
	var resp proto.Response
	err := s.ctlRPC(id, s.serverEPs[id], &proto.Request{Op: proto.OpCheckpoint}, &resp)
	var bad replyError
	switch {
	case err == nil:
		return nil
	case resp.Err != 0:
		return fmt.Errorf("core: checkpoint on server %d: %v", id, resp.Err)
	case errors.As(err, &bad):
		return fmt.Errorf("core: checkpoint reply from server %d: %w", id, bad.error)
	default:
		return fmt.Errorf("core: checkpoint rpc to server %d: %w", id, err)
	}
}

// replyError is ctlRPC's error for a reply that came and did not decode.
type replyError struct{ error }

// ctlRPC is the control plane's one exchange: req goes from the ctl endpoint
// to dst, an endpoint of server id, stamped with that server's clock — at or
// past everything the server has served, which is what lets ctl be a
// transient lane (DESIGN.md §13) — and the reply is decoded into resp. A
// crashed target is an error, not a wait on a closed request loop; a reply's
// errno is returned as the error, with resp filled in.
func (s *System) ctlRPC(id int, dst msg.EndpointID, req *proto.Request, resp *proto.Response) error {
	srv := s.servers[id]
	if srv.Crashed() {
		return fmt.Errorf("server %d is crashed", id)
	}
	env, err := s.network.RPC(s.ctl, dst, proto.KindRequest, req.Marshal(), srv.Clock())
	if err != nil {
		return err
	}
	if err := proto.UnmarshalResponseInto(resp, env.Payload); err != nil {
		return replyError{err}
	}
	if resp.Err != 0 {
		return resp.Err
	}
	return nil
}

// CheckpointAll checkpoints every running server.
func (s *System) CheckpointAll() error {
	for i := range s.servers {
		if s.servers[i].Crashed() {
			continue
		}
		if err := s.Checkpoint(i); err != nil {
			return err
		}
	}
	return nil
}

// WalStats returns each server's write-ahead-log counters (zero-valued when
// durability is disabled).
func (s *System) WalStats() []wal.Stats {
	out := make([]wal.Stats, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.WalStats()
	}
	return out
}
