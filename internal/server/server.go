// Package server implements a Hare file server.
//
// A Hare deployment runs NSERVERS file servers, each pinned to a core. The
// file system state is split among them: every server owns the inodes it
// created (named by server id + per-server inode number), a shard of every
// distributed directory's entries (selected by hashing the parent directory
// inode and entry name), a partition of the shared buffer cache, the
// server-side half of shared file descriptors, and the pipes it created.
//
// Servers never talk to each other; the client library coordinates any
// operation that spans servers (the three-phase rmdir protocol, rename,
// readdir broadcasts). Servers push directory-cache invalidation callbacks
// to client libraries, relying on the messaging layer's atomic delivery.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ClientRegistry maps client-library ids to their callback endpoints so file
// servers can send directory-cache invalidations.
type ClientRegistry struct {
	mu  sync.RWMutex
	eps map[int32]msg.EndpointID
}

// NewClientRegistry returns an empty registry.
func NewClientRegistry() *ClientRegistry {
	return &ClientRegistry{eps: make(map[int32]msg.EndpointID)}
}

// Register records the callback endpoint for a client id.
func (r *ClientRegistry) Register(id int32, ep msg.EndpointID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eps[id] = ep
}

// Lookup returns the callback endpoint for a client id.
func (r *ClientRegistry) Lookup(id int32) (msg.EndpointID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ep, ok := r.eps[id]
	return ep, ok
}

// Endpoints returns every registered callback endpoint (used by recovery to
// broadcast a directory-cache flush).
func (r *ClientRegistry) Endpoints() []msg.EndpointID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]msg.EndpointID, 0, len(r.eps))
	for _, ep := range r.eps {
		out = append(out, ep)
	}
	return out
}

// Config describes one file server instance.
type Config struct {
	ID         int // server index in [0, NumServers)
	Core       int // core the server is pinned to
	NumServers int

	Machine   *sim.Machine
	Network   *msg.Network
	DRAM      *ncc.DRAM
	Partition *ncc.Partition
	Registry  *ClientRegistry

	// CoLocated is true in the timeshare configuration, where the server
	// shares its core with application processes; every RPC then pays
	// context-switch and cache-pollution overhead (§5.3.3).
	CoLocated bool

	// RootDistributed configures whether the root directory's entries are
	// sharded across servers. Only meaningful for server 0, which stores
	// the root inode.
	RootDistributed bool

	// Log, when non-nil, enables durability: mutations are written ahead
	// to this log, acknowledged at their commit point, periodically
	// folded into checkpoints, and replayed by Recover after a Crash.
	Log *wal.Log

	// Placement is the deployment's boot-time placement map (DESIGN.md
	// §9). Nil disables the epoch gate and shard migration (bare servers
	// built directly by unit tests).
	Placement *place.Map

	// Repl enables shard replication (DESIGN.md §12): the server runs a
	// replication-plane endpoint, ships its WAL batches to the follower
	// installed via SetReplTarget, and ingests batches for the primaries
	// it follows. The zero value disables all of it.
	Repl ReplOptions

	// Tracer, when non-nil, records server-side child spans (network
	// delivery, queueing, service, batch sub-ops, WAL commit) for
	// requests that arrive carrying a trace context.
	Tracer *trace.Tracer
}

// Stats counts the work a server has performed.
type Stats struct {
	Ops           map[proto.Op]uint64
	Invalidations uint64
	Parked        uint64
	Checkpoints   uint64
	BusyCycles    sim.Cycles
	// BatchedOps counts sub-operations served inside OpBatch envelopes.
	BatchedOps uint64
	// QueueDelay accumulates, across all requests, the virtual time between
	// a request's arrival and the moment the server started serving it.
	QueueDelay sim.Cycles
	// Epoch is the placement-map epoch the server has adopted (0 when the
	// server runs without a placement layer).
	Epoch uint64
	// Entries is the number of directory entries currently stored here
	// (the server's share of the namespace's shard state).
	Entries int64
	// MigInEntries and MigOutEntries count directory entries this server
	// received and handed off through shard migrations (DESIGN.md §9).
	MigInEntries  uint64
	MigOutEntries uint64
	// Replication counters (DESIGN.md §12). ReplShips/ReplBytes count
	// primary-side shipped batches; ReplAcks counts follower-side acks;
	// ReplResyncs counts rebase snapshots shipped. ReplLastLSN and
	// ReplDurable are the primary's shipping horizon and the follower-
	// acked horizon — their difference is the replication lag.
	ReplShips   uint64
	ReplBytes   uint64
	ReplAcks    uint64
	ReplResyncs uint64
	ReplLastLSN uint64
	ReplDurable uint64
}

// Server is one Hare file server. Its Run loop processes one request at a
// time from its inbox; all mutable state is confined to that goroutine.
type Server struct {
	cfg   Config
	ep    *msg.Endpoint
	clock sim.Clock

	inodes  *table.Sharded[uint64, *inode]
	nextIno uint64

	dirs     *table.Map[proto.InodeID, *dirShard]
	deadDirs *table.Map[proto.InodeID, struct{}]

	sharedFds *table.Map[proto.FdID, *sharedFd]
	nextFd    proto.FdID

	// tracking records, per directory entry stored here, which client
	// libraries have the lookup cached (for invalidation callbacks). The
	// value is a small insertion-ordered set, so invalidation fan-outs walk
	// clients in a deterministic order.
	tracking *table.Map[direntKey, []int32]

	// Hot-path recycling (DESIGN.md §13), confined to the request loop: a
	// free list of request structs, a scratch response with the extent list
	// it may carry, and the batch in service — its decoded sub-requests and
	// their responses, at most proto.MaxBatchOps of each, reused by the next
	// batch (until then they keep alive what the last one's carried).
	reqFree    []*proto.Request
	scratch    proto.Response
	extScratch []proto.Extent
	subReqs    []proto.Request
	subResps   []*proto.Response

	statsMu sync.Mutex
	stats   Stats

	// Durability state (nil / zero when the deployment runs without it).
	wal     *wal.Log
	pending []wal.Record // records staged by the current request
	// pendingBlocks holds the block lists of the staged RecBlocks records.
	pendingBlocks []uint64
	crashed       atomic.Bool
	crashMu       sync.Mutex // serializes Crash/Recover with each other
	lostMemory    bool
	// incarnation counts recoveries; shared-descriptor ids embed it so
	// descriptors from before a crash cannot alias ones issued after.
	incarnation uint32
	// verBase is the floor of this incarnation's inode data versions
	// (incarnation << 32). Versions replayed or assigned after a recovery
	// start above every version handed out before the crash, so a client's
	// stale pre-crash version can never match and mask lost writes.
	verBase uint64

	// Elastic-placement state (DESIGN.md §9). pmap/frozen/pendingEpoch/
	// migParked are confined to the request loop (and to Recover, which
	// runs with the loop stopped); epoch and entCount are atomics so the
	// stats/shell surfaces can read them from other goroutines.
	pmap         *place.Map
	epoch        atomic.Uint64
	frozen       bool
	pendingEpoch uint64
	migParked    []parkedReq
	entCount     atomic.Int64

	// Tracing state, confined to the request loop. tem is re-created with
	// the new incarnation on Recover so post-crash spans never reuse a
	// pre-crash span ID. curTrace/curParent hold the in-flight request's
	// trace context so commitPending can attach the WAL and ship spans.
	tr        *trace.Tracer
	tem       *trace.Emitter
	curTrace  uint64
	curParent uint64
	curOp     string

	// Replication state (DESIGN.md §12; nil/zero when disabled). replicas,
	// replClock, replReq and replRecs are confined to the replication-plane
	// goroutine, shipBuf and shipResp to the request loop; the horizon and
	// counter fields are atomics because the request loop (shipping), the
	// replication plane (acks), and the stats surface all touch them.
	replEP    *msg.Endpoint
	replDone  chan struct{}
	replClock sim.Clock
	replicas  map[int]*repl.Follower
	// Recycled per message, like the request loop's (DESIGN.md §13): the
	// request a replication message is decoded into, the records of the batch
	// it carries (decoded in place in that request's Data), the scratch a
	// ship's repl.Msg is encoded in, and the response its ack is decoded into.
	replReq  proto.Request
	replRecs []wal.Record
	shipBuf  []byte
	shipResp proto.Response

	replTarget   atomic.Pointer[ReplTarget]
	replDurable  atomic.Uint64
	replLastLSN  atomic.Uint64
	replNeedSync atomic.Bool
	replShips    atomic.Uint64
	replBytes    atomic.Uint64
	replAcks     atomic.Uint64
	replAckBytes atomic.Uint64
	replResyncs  atomic.Uint64

	done chan struct{}
}

// New creates a file server and registers its endpoint on the network. If
// this is server 0 it creates the root directory inode.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		ep:        cfg.Network.NewEndpoint(cfg.Core),
		inodes:    newInodeTable(),
		nextIno:   2, // local inode 1 is reserved for the root directory
		dirs:      newDirTable(),
		deadDirs:  newDeadDirTable(),
		sharedFds: newFdTable(),
		nextFd:    1,
		tracking:  newTrackTable(),
		wal:       cfg.Log,
		tr:        cfg.Tracer,
		tem:       trace.ServerEmitter(cfg.ID, 0),
		done:      make(chan struct{}),
	}
	// The least any request costs here: arrival, no service (a request that
	// cannot be decoded gets none), and the reply's send.
	s.ep.Turnaround = s.arrivalOverhead() + cfg.Machine.Cost.MsgSend
	// A server originates only ships, to its follower's ungated replication
	// inbox: between them its lane holds nothing (the client request whose
	// commit ships already holds the floor).
	s.ep.Transient = true
	s.stats.Ops = make(map[proto.Op]uint64)
	s.pmap = cfg.Placement
	if s.pmap != nil {
		s.epoch.Store(s.pmap.Epoch())
	}
	if cfg.Repl.Mode != repl.Off {
		if s.cfg.Repl.Window <= 0 {
			s.cfg.Repl.Window = repl.DefaultWindow
		}
		s.replEP = cfg.Network.NewEndpoint(cfg.Core)
		s.replEP.Transient = true // sends only acks, to ungated replication inboxes
		s.replDone = make(chan struct{})
		s.replicas = make(map[int]*repl.Follower)
	}
	if int32(cfg.ID) == proto.RootInode.Server {
		root := &inode{
			local:       proto.RootInode.Local,
			ftype:       fsapi.TypeDir,
			mode:        fsapi.Mode755,
			nlink:       1,
			distributed: cfg.RootDistributed,
		}
		s.inodes.Put(root.local, root)
	}
	return s
}

// EndpointID returns the server's network endpoint id; clients address their
// RPCs to it.
func (s *Server) EndpointID() msg.EndpointID { return s.ep.ID }

// ID returns the server index.
func (s *Server) ID() int { return s.cfg.ID }

// Core returns the core the server is pinned to.
func (s *Server) Core() int { return s.cfg.Core }

// Clock returns the server's current virtual time.
func (s *Server) Clock() sim.Cycles { return s.clock.Now() }

// WalStats returns the write-ahead log's counters; the zero Stats when
// durability is disabled.
func (s *Server) WalStats() wal.Stats {
	if s.wal == nil {
		return wal.Stats{}
	}
	return s.wal.Stats()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := Stats{
		Ops:           make(map[proto.Op]uint64, len(s.stats.Ops)),
		Invalidations: s.stats.Invalidations,
		Parked:        s.stats.Parked,
		Checkpoints:   s.stats.Checkpoints,
		BusyCycles:    s.clock.Now(),
		BatchedOps:    s.stats.BatchedOps,
		QueueDelay:    s.stats.QueueDelay,
		Epoch:         s.epoch.Load(),
		Entries:       s.entCount.Load(),
		MigInEntries:  s.stats.MigInEntries,
		MigOutEntries: s.stats.MigOutEntries,
		ReplShips:     s.replShips.Load(),
		ReplBytes:     s.replBytes.Load() + s.replAckBytes.Load(),
		ReplAcks:      s.replAcks.Load(),
		ReplResyncs:   s.replResyncs.Load(),
		ReplLastLSN:   s.replLastLSN.Load(),
		ReplDurable:   s.replDurable.Load(),
	}
	for k, v := range s.stats.Ops {
		out.Ops[k] = v
	}
	return out
}

// Start launches the server's request loop (and its replication plane,
// when replication is enabled).
func (s *Server) Start() {
	go s.run()
	if s.replEP != nil {
		go s.runRepl()
	}
}

// Stop shuts the server down. In-flight parked requests (blocked pipe reads,
// rmdir waiters) never receive replies after Stop; callers stop servers only
// after all application processes have finished.
func (s *Server) Stop() {
	s.ep.Inbox.Close()
	<-s.done
	if s.replEP != nil {
		s.replEP.Inbox.Close()
		<-s.replDone
	}
}

func (s *Server) run() {
	defer close(s.done)
	for {
		// Gate() is re-loaded every iteration: parallel mode may be switched
		// on or off between requests (it is only ever toggled while the
		// system is quiescent). A nil gate is the serialized path,
		// bit-identical to PopWaitEarliest.
		env, ok := s.ep.Inbox.PopWaitEarliestGated(s.cfg.Network.Gate())
		if !ok {
			return
		}
		if s.crashed.Load() {
			// A crash is in progress: abandon the loop without serving.
			// The envelope goes back to the inbox so it is served after
			// recovery rather than silently dropped.
			s.ep.Inbox.Push(env)
			return
		}
		s.handle(env)
	}
}

// handle processes one inbound request envelope. The server processes one
// request at a time; in virtual time a request starts at the later of its
// arrival and the completion of the previously served request, which is what
// produces queueing delay at a busy server (the single-server bottlenecks of
// §5.3.1 and §5.4).
//
// A batch envelope (OpBatch) pays the message-arrival overhead once and the
// per-sub-op service costs in sequence, which is the whole point of batching
// (DESIGN.md §7).
func (s *Server) handle(env msg.Envelope) {
	// Decode into a recycled request struct and release the payload buffer
	// into this endpoint's cache right away: the wire decoder copies every
	// variable-length field, so the decoded request never aliases it.
	req := s.getReq()
	err := proto.UnmarshalRequestInto(req, env.Payload)
	s.ep.PutBuf(env.Payload)
	env.Payload = nil
	var service sim.Cycles
	var subs []proto.Request
	var stop bool
	if err == nil {
		service, subs, stop, err = s.requestCost(req)
	}
	cost := &s.cfg.Machine.Cost
	overhead := s.arrivalOverhead()
	// A traced request pays modeled tracing overhead for the spans this
	// server will record: net + queue + service, plus one per batch
	// sub-op. Untraced requests (or tracer off) charge nothing, keeping
	// the tracing-off virtual timeline bit-identical.
	traced := err == nil && s.tr != nil && req.Trace != 0
	if traced {
		nspans := 3 + len(subs)
		overhead += sim.Cycles(nspans) * cost.TraceSpan
	}
	total := overhead + service
	start := env.ArriveAt
	if now := s.clock.Now(); now > start {
		s.statsMu.Lock()
		s.stats.QueueDelay += now - start
		s.statsMu.Unlock()
		start = now
	}
	end := s.cfg.Machine.Execute(s.cfg.Core, start, total)
	s.clock.AdvanceTo(end)
	if err != nil {
		// Dequeueing and unmarshalling is how the server found out: a
		// malformed request or batch has queued and paid the arrival
		// overhead like every request, and gets no service.
		s.replyAt(env, s.errResp(fsapi.EINVAL), end)
		s.putReq(req)
		return
	}

	s.statsMu.Lock()
	s.stats.Ops[req.Op]++
	s.statsMu.Unlock()

	var resp *proto.Response
	var parked bool
	if req.Op == proto.OpBatch {
		resp, parked = s.dispatchBatch(subs, stop, req, env)
	} else {
		resp, parked = s.dispatch(req, env)
	}
	if parked {
		// The one hold of this package, whatever the request parked on (an
		// rmdir mark, a frozen shard, an empty or full pipe, the rmdir lock):
		// a request parked again on re-dispatch finds its sender held already.
		s.cfg.Network.Hold(env)
		s.statsMu.Lock()
		s.stats.Parked++
		s.statsMu.Unlock()
		return
	}
	if traced {
		s.recordSpans(req, subs, env, start, end, total-service, resp)
		s.curTrace, s.curParent, s.curOp = req.Trace, req.Span, req.Op.String()
	}
	s.replyAt(env, resp, end)
	s.curTrace, s.curParent, s.curOp = 0, 0, ""
	s.putReq(req)

	// Fold accumulated log records into a checkpoint between requests. A
	// failed checkpoint means the log can no longer be truncated (and the
	// store is likely failing); fail loudly rather than silently retrying
	// the full snapshot after every request.
	if s.wal != nil && s.wal.CheckpointDue() {
		if err := s.writeCheckpoint(); err != nil {
			panic(fmt.Sprintf("server %d: checkpoint: %v", s.cfg.ID, err))
		}
	}
}

// arrivalOverhead is what every request pays on arrival, before any service:
// the dequeue and unmarshal, plus the context switch and cache pollution of
// a server that shares its core (§5.3.3). handle charges it; with the reply's
// MsgSend it is the endpoint's declared turnaround.
func (s *Server) arrivalOverhead() sim.Cycles {
	cost := &s.cfg.Machine.Cost
	overhead := cost.MsgRecv
	if s.cfg.CoLocated {
		overhead += cost.ContextSwitch + cost.CachePollution
	}
	return overhead
}

// recordSpans attaches this server's child spans for one traced request:
// network delivery (send → arrive, including fault-injected delay), queue
// wait (arrive → service start, when the server was busy), service
// (overhead + op work), and one sub-span per batch sub-operation. All spans
// parent to the client-side RPC span carried in req.Span; batch sub-spans
// nest under the service span with their sub index as disambiguator.
func (s *Server) recordSpans(req *proto.Request, subs []proto.Request, env msg.Envelope, start, end, overhead sim.Cycles, resp *proto.Response) {
	where := ^int32(s.cfg.ID)
	name := req.Op.String()
	s.tr.Record(trace.Span{
		Trace: req.Trace, ID: s.tem.Next(), Parent: req.Span,
		Kind: trace.KindNetReq, Name: name, Where: where,
		Start: env.SentAt, End: env.ArriveAt,
	})
	if start > env.ArriveAt {
		s.tr.Record(trace.Span{
			Trace: req.Trace, ID: s.tem.Next(), Parent: req.Span,
			Kind: trace.KindQueue, Name: name, Where: where,
			Start: env.ArriveAt, End: start,
		})
	}
	svcID := s.tem.Next()
	svc := trace.Span{
		Trace: req.Trace, ID: svcID, Parent: req.Span,
		Kind: trace.KindService, Name: name, Where: where,
		Start: start, End: end,
	}
	if resp != nil {
		svc.Err = int32(resp.Err)
	}
	s.tr.Record(svc)
	if len(subs) == 0 {
		return
	}
	// Batch sub-ops ran back-to-back after the per-message overhead; each
	// sub-span covers its own service window. Per-sub errors come from the
	// batch reply when there is one.
	var serrs []*proto.Response
	if resp != nil {
		serrs = resp.Subs
	}
	at := start + overhead
	for i := range subs {
		sub := &subs[i]
		d := s.serviceCost(sub)
		ss := trace.Span{
			Trace: req.Trace, ID: s.tem.Next(), Parent: svcID,
			Kind: trace.KindSub, Name: sub.Op.String(), Where: where,
			Start: at, End: at + d, Idx: int32(i),
		}
		if i < len(serrs) {
			ss.Err = int32(serrs[i].Err)
		}
		s.tr.Record(ss)
		at += d
	}
}

// QueueDepth returns the number of requests waiting in the server's inbox
// (a live load signal for the shell's top view).
func (s *Server) QueueDepth() int { return s.ep.Inbox.Len() }

// requestCost computes the total service cost of a request. For a batch it
// decodes the sub-requests (returned so dispatch does not decode them twice)
// and sums their individual service costs.
func (s *Server) requestCost(req *proto.Request) (sim.Cycles, []proto.Request, bool, error) {
	if req.Op != proto.OpBatch {
		return s.serviceCost(req), nil, false, nil
	}
	subs, stop, err := s.decodeBatch(req)
	if err != nil {
		return 0, nil, false, err
	}
	var total sim.Cycles
	for i := range subs {
		total += s.serviceCost(&subs[i])
	}
	return total, subs, stop, nil
}

// decodeBatch decodes a batch envelope's sub-requests into the server's
// recycled structs, which the next batch overwrites. They copy what they
// need out of the envelope's payload; the envelope keeps it, and a parked
// batch is decoded again from it on re-dispatch.
func (s *Server) decodeBatch(req *proto.Request) ([]proto.Request, bool, error) {
	subs, stop, err := proto.UnmarshalBatchInto(s.subReqs, req.Data)
	if err == nil {
		s.subReqs = subs
	}
	return subs, stop, err
}

// reply sends a response at the server's current high-water time; it is used
// when answering requests that had been parked (pipe wake-ups, rmdir lock
// hand-offs), whose completion is driven by a later event.
func (s *Server) reply(env msg.Envelope, resp *proto.Response) {
	s.replyAt(env, resp, s.clock.Now())
}

// replyAt sends a response whose service completed at the given time. When
// the request staged durability records, the reply is held back to their
// commit point: clients observe mutations as acknowledged only once logged
// (DESIGN.md §6).
func (s *Server) replyAt(env msg.Envelope, resp *proto.Response, at sim.Cycles) {
	if resp == nil {
		resp = s.errResp(fsapi.EIO)
	}
	at = s.commitPending(at)
	end := s.cfg.Machine.Execute(s.cfg.Core, at, s.cfg.Machine.Cost.MsgSend)
	s.clock.AdvanceTo(end)
	// Marshal into a recycled buffer; the awaiting requester releases it
	// into its own cache after decoding.
	payload := resp.AppendTo(s.ep.GetBuf(resp.SizeHint()))
	s.cfg.Network.Reply(s.ep, env, proto.KindResponse, payload, end)
}

// dispatch routes the request to the appropriate handler. The bool result is
// true if the request was parked (no reply should be sent yet).
func (s *Server) dispatch(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	// Only a batch gives the chain target a meaning, and only to the ops
	// dispatchBatch has resolved it for by now; no handler ever sees it.
	if req.Target == proto.PrevInode {
		return s.errResp(fsapi.EINVAL), false
	}
	// Placement-routed requests pass the epoch gate first: a stale (or
	// ahead-of-us) epoch is answered with EEPOCH, and entry mutations on a
	// frozen server park until the migration commits (DESIGN.md §9).
	if resp, parked, handled := s.epochGate(req, env); handled {
		return resp, parked
	}
	switch req.Op {
	// Directory entries.
	case proto.OpLookup:
		return s.handleLookup(req, env)
	case proto.OpAddMap:
		return s.handleAddMap(req, env)
	case proto.OpRmMap:
		return s.handleRmMap(req, env)
	case proto.OpReadDirShard:
		return s.handleReadDirShard(req, env)
	case proto.OpCreateCoalesced:
		return s.handleCreateCoalesced(req, env)

	// Inodes.
	case proto.OpMknod:
		return s.handleMknod(req), false
	case proto.OpLinkInode:
		return s.handleLinkInode(req), false
	case proto.OpUnlinkInode:
		return s.handleUnlinkInode(req), false
	case proto.OpOpenInode:
		return s.handleOpenInode(req), false
	case proto.OpCloseInode:
		return s.handleCloseInode(req), false
	case proto.OpGetBlocks:
		return s.handleGetBlocks(req), false
	case proto.OpExtend:
		return s.handleExtend(req), false
	case proto.OpSetSize:
		return s.handleSetSize(req), false
	case proto.OpTruncate:
		return s.handleTruncate(req), false
	case proto.OpStat:
		return s.handleStat(req), false
	case proto.OpReadAt:
		return s.handleReadAt(req), false
	case proto.OpWriteAt:
		return s.handleWriteAt(req), false

	// rmdir three-phase protocol.
	case proto.OpRmdirLock:
		return s.handleRmdirLock(req, env)
	case proto.OpRmdirPrepare:
		return s.handleRmdirPrepare(req), false
	case proto.OpRmdirCommit:
		return s.handleRmdirCommit(req), false
	case proto.OpRmdirAbort:
		return s.handleRmdirAbort(req), false
	case proto.OpRmdirUnlock:
		return s.handleRmdirUnlock(req), false
	case proto.OpRmdirFinish:
		return s.handleRmdirFinish(req), false

	// Shared file descriptors.
	case proto.OpFdShare:
		return s.handleFdShare(req), false
	case proto.OpFdIncRef:
		return s.handleFdIncRef(req), false
	case proto.OpFdDecRef:
		return s.handleFdDecRef(req), false
	case proto.OpFdUnshare:
		return s.handleFdUnshare(req), false
	case proto.OpFdRead:
		return s.handleFdRead(req), false
	case proto.OpFdWrite:
		return s.handleFdWrite(req), false
	case proto.OpFdSeek:
		return s.handleFdSeek(req), false
	case proto.OpFdGetInfo:
		return s.handleFdGetInfo(req), false

	// Pipes.
	case proto.OpPipeCreate:
		return s.handlePipeCreate(req), false
	case proto.OpPipeRead:
		return s.handlePipeRead(req, env)
	case proto.OpPipeWrite:
		return s.handlePipeWrite(req, env)
	case proto.OpPipeIncReader:
		return s.handlePipeIncRef(req, false), false
	case proto.OpPipeIncWriter:
		return s.handlePipeIncRef(req, true), false
	case proto.OpPipeCloseRead:
		return s.handlePipeClose(req, false), false
	case proto.OpPipeCloseWrite:
		return s.handlePipeClose(req, true), false

	case proto.OpCheckpoint:
		return s.handleCheckpoint(req), false

	// Shard migration (elastic placement).
	case proto.OpShardFreeze:
		return s.handleShardFreeze(req), false
	case proto.OpShardPull:
		return s.handleShardPull(req), false
	case proto.OpShardCommit:
		return s.handleShardCommit(req), false

	case proto.OpBatch:
		// Reached on re-dispatch of a batch that had been parked on a
		// marked shard (handle routes fresh batches directly).
		subs, stop, err := s.decodeBatch(req)
		if err != nil {
			return s.errResp(fsapi.EINVAL), false
		}
		return s.dispatchBatch(subs, stop, req, env)

	case proto.OpPing:
		return s.resp(proto.Response{}), false

	default:
		return s.errResp(fsapi.ENOSYS), false
	}
}

// serviceCost returns the virtual service time for a request.
func (s *Server) serviceCost(req *proto.Request) sim.Cycles {
	c := &s.cfg.Machine.Cost
	switch req.Op {
	case proto.OpLookup:
		return c.ServeLookup
	case proto.OpAddMap, proto.OpMknod:
		return c.ServeCreate
	case proto.OpCreateCoalesced:
		return c.ServeCreate + c.ServeOpen/2
	case proto.OpRmMap, proto.OpUnlinkInode, proto.OpLinkInode:
		return c.ServeUnlink
	case proto.OpReadDirShard:
		// Per-entry cost is added after dispatch would be more precise;
		// approximate with the current shard size.
		n := 0
		if shard, ok := s.dirs.Get(req.Dir); ok {
			n = shard.ents.Len()
		}
		return c.ServeReadDir + sim.Cycles(n)*c.ServePerEnt
	case proto.OpOpenInode:
		return c.ServeOpen
	case proto.OpCloseInode:
		return c.ServeClose
	case proto.OpGetBlocks, proto.OpExtend, proto.OpSetSize, proto.OpTruncate:
		return c.ServeBlockOp
	case proto.OpStat:
		return c.ServeStat
	case proto.OpReadAt, proto.OpWriteAt:
		n := int(req.Count)
		if len(req.Data) > n {
			n = len(req.Data)
		}
		return c.ServeFdOp + sim.LineCost(c.DRAMPerLine, n)
	case proto.OpRmdirLock, proto.OpRmdirPrepare, proto.OpRmdirCommit,
		proto.OpRmdirAbort, proto.OpRmdirUnlock, proto.OpRmdirFinish:
		return c.ServeRmdir
	case proto.OpFdShare, proto.OpFdIncRef, proto.OpFdDecRef, proto.OpFdUnshare,
		proto.OpFdSeek, proto.OpFdGetInfo:
		return c.ServeFdOp
	case proto.OpFdRead, proto.OpFdWrite:
		n := int(req.Count)
		if len(req.Data) > n {
			n = len(req.Data)
		}
		return c.ServeFdOp + sim.LineCost(c.DRAMPerLine, n)
	case proto.OpPipeCreate, proto.OpPipeCloseRead, proto.OpPipeCloseWrite,
		proto.OpPipeIncReader, proto.OpPipeIncWriter:
		return c.ServePipeOp
	case proto.OpShardPull, proto.OpShardCommit:
		// Migration cost scales with the entries scanned; approximate with
		// the current shard-table size.
		return c.ServeReadDir + sim.Cycles(s.entCount.Load())*c.ServePerEnt
	case proto.OpPipeRead, proto.OpPipeWrite:
		n := int(req.Count)
		if len(req.Data) > n {
			n = len(req.Data)
		}
		return c.ServePipeOp + sim.LineCost(c.CopyPerLine, n)
	default:
		return c.ServeStat
	}
}
