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

// Config describes one file server instance.
type Config struct {
	ID         int // server index in [0, NumServers)
	Core       int // core the server is pinned to
	NumServers int

	Machine   *sim.Machine
	Network   *msg.Network
	DRAM      *ncc.DRAM
	Partition *ncc.Partition

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
	// it follows. repl.Off, the zero value, disables all of it.
	Repl repl.Mode

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
	// Replication counters (DESIGN.md §12). ReplShips counts primary-side
	// shipped batches and ReplBytes their bytes and their acks'; ReplAcks
	// counts follower-side acks; ReplResyncs counts rebase snapshots
	// shipped. ReplLastLSN and ReplDurable are the primary's shipping
	// horizon and the follower-acked horizon — their difference is the
	// replication lag.
	ReplShips   uint64
	ReplBytes   uint64
	ReplAcks    uint64
	ReplResyncs uint64
	ReplLastLSN uint64
	ReplDurable uint64
}

// Server is one Hare file server. It serves one request at a time: its loop
// pops them from its inbox, and a request that finds the loop asleep on an
// empty inbox is served on its sender's goroutine instead (serve). All
// mutable state is confined to whichever goroutine holds the server — the
// loop, or the sender serving in its place — and the inbox's mutex passes it
// from one to the next.
type Server struct {
	cfg   Config
	ep    *msg.Endpoint
	clock sim.Clock

	inodes  *table.Dense[inode]
	nextIno uint64

	dirs     *table.Map[proto.InodeID, *dirShard]
	deadDirs *table.Map[proto.InodeID, struct{}]

	sharedFds *table.Map[proto.FdID, *sharedFd]
	nextFd    proto.FdID

	// Hot-path recycling (DESIGN.md §13), confined to the server's holder: a
	// free list of request structs, a scratch response with the extent list
	// or listing it may carry, and the batch in service — its decoded
	// sub-requests and their responses, at most proto.MaxBatchOps of each,
	// reused by the next batch (until then they keep alive what the last
	// one's carried; the sub-requests' names are views of its envelope's
	// Data, see decodeBatch).
	reqFree    []*proto.Request
	scratch    proto.Response
	extScratch []proto.Extent
	entScratch []proto.DirEntWire
	subReqs    []proto.Request
	subResps   []*proto.Response

	// from is the endpoint of the client whose request is in service, set by
	// dispatch from its envelope (a parked request keeps it): the client an
	// entry it looks up is tracked for, and the one its change calls no
	// client back for.
	from msg.EndpointID

	// onRelease, when set (by tests), sees every request putReq releases,
	// before the struct is reused.
	onRelease func(*proto.Request)

	// Counters (Stats): written by the server's holder, one at a time, and
	// read by Stats from any goroutine.
	ops           [proto.NumOps]atomic.Uint64
	invalidations atomic.Uint64
	parked        atomic.Uint64
	checkpoints   atomic.Uint64
	batchedOps    atomic.Uint64
	queueDelay    atomic.Uint64
	migIn, migOut atomic.Uint64

	// Durability state (nil / zero when the deployment runs without it).
	wal     *wal.Log
	pending []wal.Record // records staged by the current request
	// pendingBlocks holds the block lists of the staged RecBlocks records.
	pendingBlocks []uint64
	crashed       atomic.Bool
	crashMu       sync.Mutex // serializes a crash with Recover, Promote and LoseMemory
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
	// migParked are confined to the server's holder (and to Recover, which
	// runs with the loop stopped); epoch and entCount are atomics so the
	// stats/shell surfaces can read them from other goroutines.
	pmap         *place.Map
	epoch        atomic.Uint64
	frozen       bool
	pendingEpoch uint64
	migParked    waitq
	entCount     atomic.Int64

	// orphans holds the requests parked when the server crashed, for the
	// restart to serve again (wait.go).
	orphans waitq

	// Tracing state, confined to the server's holder. tem is re-created with
	// the new incarnation on Recover so post-crash spans never reuse a
	// pre-crash span ID. curTrace/curParent hold the in-flight request's
	// trace context so commitPending can attach the WAL and ship spans.
	tr        *trace.Tracer
	tem       trace.Emitter
	curTrace  uint64
	curParent uint64
	curOp     string

	// Replication state (DESIGN.md §12; nil/zero when disabled). replicas,
	// replClock and replRecs are confined to the replication plane's holder;
	// the horizon and counter fields are atomics because the request loop
	// (shipping), the replication plane (acks), and the stats surface all
	// touch them.
	replEP    *msg.Endpoint
	replDone  chan struct{}
	replClock sim.Clock
	replicas  map[int]*repl.Follower
	// The records of a shipped batch, decoded in place in its payload and
	// recycled per message, like the request loop's (DESIGN.md §13).
	replRecs []wal.Record

	replTarget   atomic.Pointer[ReplTarget]
	replDurable  atomic.Uint64
	replLastLSN  atomic.Uint64
	replNeedSync atomic.Bool
	replShips    atomic.Uint64
	replBytes    atomic.Uint64
	replAcks     atomic.Uint64
	replResyncs  atomic.Uint64

	done chan struct{}
}

// inboxRoom is the room a server's inbox starts with, made at set-up.
// Requests queue only while the server is busy or, under the parallel
// engine, not yet safe to serve, so inline set-up traffic no longer grows
// the inboxes and the timed region's first bursts would. Measured across the
// repository benchmark's timed regions, the most requests queued at once at
// one server was 8 (meta_churn; tree_walk 6, durable_mail 5), apart from one
// fan-in of 63 at one server of scale_fanout_par per repetition.
const inboxRoom = 8

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
	s.ep.Inbox.Reserve(inboxRoom)
	s.ep.Inbox.SetServe(s.serve)
	s.pmap = cfg.Placement
	if s.pmap != nil {
		s.epoch.Store(s.pmap.Epoch())
	}
	if cfg.Repl != repl.Off {
		s.replEP = cfg.Network.NewEndpoint(cfg.Core) // it only answers
		s.replEP.Inbox.SetServe(s.serveRepl)
		s.replDone = make(chan struct{})
		s.replicas = make(map[int]*repl.Follower)
	}
	if int32(cfg.ID) == proto.RootInode.Server {
		*s.inodes.Put(proto.RootInode.Local) = inode{
			local:       proto.RootInode.Local,
			ftype:       fsapi.TypeDir,
			mode:        fsapi.Mode755,
			nlink:       1,
			distributed: cfg.RootDistributed,
		}
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
	out := Stats{
		Ops:           make(map[proto.Op]uint64),
		Invalidations: s.invalidations.Load(),
		Parked:        s.parked.Load(),
		Checkpoints:   s.checkpoints.Load(),
		BusyCycles:    s.clock.Now(),
		BatchedOps:    s.batchedOps.Load(),
		QueueDelay:    sim.Cycles(s.queueDelay.Load()),
		Epoch:         s.epoch.Load(),
		Entries:       s.entCount.Load(),
		MigInEntries:  s.migIn.Load(),
		MigOutEntries: s.migOut.Load(),
		ReplShips:     s.replShips.Load(),
		ReplBytes:     s.replBytes.Load(),
		ReplAcks:      s.replAcks.Load(),
		ReplResyncs:   s.replResyncs.Load(),
		ReplLastLSN:   s.replLastLSN.Load(),
		ReplDurable:   s.replDurable.Load(),
	}
	for op := range s.ops {
		if n := s.ops[op].Load(); n > 0 {
			out.Ops[proto.Op(op)] = n
		}
	}
	return out
}

// countOp counts one request for op; a number no op has counts as OpInvalid.
func (s *Server) countOp(op proto.Op) {
	if op >= proto.NumOps {
		op = proto.OpInvalid
	}
	s.ops[op].Add(1)
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
		if env.Kind == proto.KindCrash {
			s.crash(env)
			return
		}
		s.handle(env)
	}
}

// serve is the inbox's serve hook (msg.Queue.SetServe): a request that finds
// the loop asleep on an empty inbox is handled on its sender's goroutine, as
// the loop would handle it — it is the only request queued, so the one the
// loop would pop next, and its clocks and charges are the loop's. A crash is
// declined: it stops the loop, so the loop serves it. So is everything under
// the parallel engine, whose loop sleeps gated and is idle only across a
// switch of engines: there a request is served once no earlier one can still
// appear, which only the gated pop knows.
func (s *Server) serve(env msg.Envelope) bool {
	if env.Kind == proto.KindCrash || s.cfg.Network.Gate() != nil {
		return false
	}
	s.handle(env)
	return true
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
	// into this endpoint's cache right away: UnmarshalRequestInto copies
	// every variable-length field, so the decoded request never aliases it.
	// A batch's sub-requests then borrow their names from the struct's own
	// Data, which is ours until putReq (decodeBatch).
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
		s.queueDelay.Add(uint64(now - start))
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

	s.countOp(req.Op)

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
		s.parked.Add(1)
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
		d := s.opCost(sub)
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
		return s.opCost(req), nil, false, nil
	}
	subs, stop, err := s.decodeBatch(req)
	if err != nil {
		return 0, nil, false, err
	}
	var total sim.Cycles
	for i := range subs {
		total += s.opCost(&subs[i])
	}
	return total, subs, stop, nil
}

// decodeBatch decodes a batch envelope's sub-requests into the server's
// recycled structs, which the next batch overwrites. The envelope's Data
// lends them their names: those bytes are the server's, and stay put until
// the envelope goes back to the free list (putReq) — after the reply, and so
// after commitPending has encoded every record staged under a lent name. A
// handler reads a lent name in place; a new key — an entry's (handleAddMap,
// handleCreateCoalesced) — is a copy in the shard's slab (dirShard.keep), as
// every new key is, lent or not. A table Put on a key already present keeps the stored key
// (handleLookup's put-back). A parked batch keeps its envelope and is
// decoded again from it on re-dispatch.
func (s *Server) decodeBatch(req *proto.Request) ([]proto.Request, bool, error) {
	subs, stop, err := proto.UnmarshalBatchLent(s.subReqs, req.Data)
	if err == nil {
		s.subReqs = subs
	}
	return subs, stop, err
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
