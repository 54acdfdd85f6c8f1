// Package client implements the Hare client library.
//
// Every simulated process owns a client library instance. The library
// implements the POSIX-like fsapi.Client interface by combining direct
// access to the shared buffer cache (through the core's non-coherent private
// cache) with RPCs to the Hare file servers. It maintains the directory
// lookup cache, tracks local vs shared file-descriptor state, coordinates
// multi-server operations such as rename and the three-phase rmdir protocol,
// and applies the paper's optimizations (directory broadcast, message
// coalescing, creation affinity).
package client

import (
	"slices"
	"sync/atomic"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Options toggles the individual techniques evaluated in §5.4. All default
// to enabled in a standard Hare configuration. The async RPC pipeline
// (DESIGN.md §7) and the dirty-line data path (DESIGN.md §8) added on top of
// the paper are always on.
type Options struct {
	DirDistribution  bool // honor the per-directory distribution flag (§3.3)
	DirCache         bool // directory lookup cache with invalidations (§3.6.1)
	DirBroadcast     bool // parallel fan-out for readdir/rmdir (§3.6.2)
	DirectAccess     bool // client reads/writes the buffer cache directly (§3.2)
	CreationAffinity bool // NUMA-aware inode placement (§3.6.4)
}

// DefaultOptions enables every technique.
func DefaultOptions() Options {
	return Options{DirDistribution: true, DirCache: true, DirBroadcast: true, DirectAccess: true, CreationAffinity: true}
}

// Config wires a client library into a Hare deployment.
type Config struct {
	Core int

	Machine *sim.Machine
	Network *msg.Network
	DRAM    *ncc.DRAM
	Cache   *ncc.PrivateCache

	// Provider publishes the deployment's current routing snapshot
	// (placement map, server endpoints and cores); the client caches it and
	// refreshes on EEPOCH, which is how it learns about servers added or
	// drained after it was created (DESIGN.md §9). Required.
	Provider RoutingProvider

	Root     proto.InodeID
	RootDist bool

	Options Options

	// CacheForCore returns the private cache of a given core (needed when a
	// child lands on a different core than its parent).
	CacheForCore func(core int) *ncc.PrivateCache

	// Tracer, when non-nil, samples FS operations into root spans whose
	// trace context rides on every RPC the operation issues (DESIGN.md
	// §11). Nil keeps the hot path allocation- and cycle-free.
	Tracer *trace.Tracer

	// AutoPark marks a bare client — one driven directly by library
	// callers rather than by the process scheduler. Under the parallel
	// engine a bare client parks its lane after every completed
	// operation: between ops its next send is driven by real time, so a
	// stale pinned frontier would wedge gated servers behind it (an
	// out-of-band Checkpoint/Failover/AddServer would deadlock). The
	// next op's first send re-joins the lane, and a straggler reply
	// resumes it. Scheduler-managed clients leave this false: the
	// process layer owns their lanes (sched: start, exit, Proc.Wait).
	AutoPark bool
}

// Stats counts client-side activity.
type Stats struct {
	RPCs           uint64 // request messages sent (a batch envelope counts once)
	DirCacheHits   uint64
	DirCacheMisses uint64
	Invalidations  uint64
	BatchedOps     uint64 // sub-operations carried inside batch envelopes
	Readaheads     uint64 // speculative READ_AT chunks issued ahead of the cursor
	VersionSkips   uint64 // opens whose invalidation a version match made unnecessary
	// FirstBlocks counts creates that carried their file's first block
	// (DESIGN.md §7), FirstBlockMisses the ones closed with it unwritten.
	FirstBlocks      uint64
	FirstBlockMisses uint64
}

// Client is one Hare client library instance. It is not safe for concurrent
// use: each simulated process drives its own Client from a single goroutine.
type Client struct {
	cfg   Config
	ep    *msg.Endpoint
	clock sim.Clock

	// fds is made by the first descriptor installed (setFD): an exec proxy
	// and a process that opens nothing never make it.
	fds    map[fsapi.FD]*openFile
	nextFD fsapi.FD
	cwd    string

	// The directory and version caches are held by value and take their
	// slot arrays on their first entry (table.Make).
	dcache table.Map[dcacheKey, dcacheEnt]

	// routing is the cached routing snapshot (placement map + server
	// endpoints); refreshed from cfg.Provider on EEPOCH replies.
	routing *Routing

	// memberSrvs caches routing.Map's member list as server indices, keyed
	// by the routing snapshot it was derived from (see memberServers).
	memberSrvs   []int
	memberSrvsOf *Routing

	// vcache records, per inode, the server-side data version as of the last
	// moment this client's private cache was known consistent with DRAM for
	// that file (after an open-time invalidation or a close/fsync
	// writeback). A re-open whose OPEN reply carries the same version skips
	// invalidation entirely (DESIGN.md §8). Only a file with blocks has an
	// entry (keepVersion).
	vcache table.Map[proto.InodeID, uint64]

	// Per-call state (tables.go): the arena every decoded response comes
	// from, and the free list of open-file descriptions.
	resps  respArena
	ofFree []*openFile

	// bcastFls and bcastOut are broadcast's scratch: its flights and the
	// responses it returns.
	bcastFls []flight
	bcastOut []*proto.Response

	// pend is the one description whose clean close has not been sent: its
	// CLOSE_INODE leads this client's next message to that server, or goes
	// on its own before a message to anywhere else (wire.go, closeLeads).
	pend *openFile

	// Creation affinity (§3.6.4; DESIGN.md §7 "Where a new inode goes"). near
	// is the ring of placement members on this client's socket, rotated so
	// that near[0] is the designated nearby server; refreshRouting rebuilds
	// it. awayDirs counts the directories this process has made whose entry
	// is off its socket in a distributed parent: the k-th goes to
	// near[k % len(near)].
	near     []int
	awayDirs int

	// writesCreates is the first-block predictor (DESIGN.md §7): the file
	// this process created last was written before it was closed, so the
	// next create brings its first block along. A forked child inherits
	// it; an exec'd process starts without.
	writesCreates bool

	// Tracing state (confined to the owning goroutine). cur is the
	// in-flight sampled root span; nested FS calls (CloseAll → Close,
	// EEPOCH retries) see cur non-nil and chain into the same root
	// instead of opening their own. opSeq counts root candidates for
	// 1-in-N sampling.
	tr    *trace.Tracer
	tem   trace.Emitter
	cur   *trace.Span
	opSeq uint64

	stats struct {
		rpcs       atomic.Uint64
		dcHits     atomic.Uint64
		dcMisses   atomic.Uint64
		invals     atomic.Uint64
		syscalls   atomic.Uint64
		wbBlocks   atomic.Uint64
		invBlocks  atomic.Uint64
		batched    atomic.Uint64
		readaheads atomic.Uint64
		verSkips   atomic.Uint64
		firstBlks  atomic.Uint64
		firstMiss  atomic.Uint64
	}
}

// openFile is a process-local open file description. Several descriptors
// (via dup) may reference the same description.
type openFile struct {
	ino   proto.InodeID
	ftype fsapi.FileType
	flags int

	// Local state: used while the descriptor is not shared with another
	// process. The offset, size and block map live here and reads/writes
	// access the buffer cache directly. The block map and the dirty set are
	// extent-coded so they scale with fragmentation, not file size; dirty
	// extents may overlap until writebackFile normalizes them.
	offset int64
	size   int64
	blocks ncc.BlockMap
	dirty  []ncc.Extent
	// dirtyNorm is len(dirty) right after its last in-place normalization;
	// addDirty re-normalizes when the list doubles past it, keeping growth
	// amortized-constant for write patterns that ping-pong between runs.
	dirtyNorm int
	wrote     bool
	// created: this description's open created the file. firstBlock: the
	// create brought the first block along and no truncate has dropped it; a
	// close that finds it unwritten counts a miss.
	created    bool
	firstBlock bool

	// verKnown is the inode data version at which this descriptor's view of
	// the private cache was last known consistent with DRAM; verLost is set
	// when a reply shows the version moved in a way this descriptor's own
	// operations cannot explain (another client mutated the file), which
	// disqualifies the descriptor's close from refreshing the version cache.
	verKnown uint64
	verLost  bool

	// Shared state: the offset has migrated to the file server and every
	// read/write/seek is an RPC (§3.4).
	srvFd proto.FdID

	// Pipe state.
	pipe      bool
	pipeWrite bool

	// Readahead state (server-mediated reads, DESIGN.md §7): a speculative
	// READ_AT for [raOff, raOff+raN) issued after a sequential read. The
	// future is dropped unharvested when the next access does not match.
	raFut *msg.Future
	raOff int64
	raN   int

	localRefs int // dup'd descriptors in this process
}

// New creates a client library instance on an endpoint of its own, the one
// name servers know it by: they track the entries it looks up by the
// endpoint its requests come from, and call it back there. It makes the
// client and its endpoint and nothing else: every table a process may never
// use is made on first use (DESIGN.md §13 "Per-process state").
func New(cfg Config) *Client {
	c := &Client{
		cfg:    cfg,
		ep:     cfg.Network.NewClientEndpoint(cfg.Core),
		nextFD: 3, // 0-2 reserved for stdio by convention
		cwd:    "/",
		dcache: newDcacheTable(),
		vcache: newVcacheTable(),
		tr:     cfg.Tracer,
	}
	c.tem = trace.ClientEmitter(c.where())
	c.routing = cfg.Provider.Routing()
	c.near = c.nearRing()
	return c
}

// EndpointID returns the client's network endpoint: its name at the servers,
// and its lane id under the parallel virtual-time engine.
func (c *Client) EndpointID() msg.EndpointID { return c.ep.ID }

// where is the client as a trace span's Where: its endpoint id.
func (c *Client) where() int32 { return int32(c.ep.ID) }

// GateActive reports whether the parallel virtual-time engine is installed.
func (c *Client) GateActive() bool { return c.cfg.Network.Gate() != nil }

// GatePark marks this client's lane quiescent while its process is blocked
// in real time (sched.Proc.Wait calls it, through sched.GateParker). No-op
// in serialized mode.
func (c *Client) GatePark() { c.cfg.Network.GateIdle(c.ep.ID) }

// GateResume re-joins this client's lane at its current clock after a
// GatePark. The caller must first advance the clock past every event that
// completed while parked (e.g. the latest child end time), so the lane does
// not promise sends in the system's past. No-op in serialized mode.
func (c *Client) GateResume() { c.cfg.Network.GateJoin(c.ep.ID, c.clock.Now()) }

// Core returns the core this client is pinned to.
func (c *Client) Core() int { return c.cfg.Core }

// Clock returns the client's current virtual time.
func (c *Client) Clock() sim.Cycles { return c.clock.Now() }

// AdvanceClock moves the client's virtual clock to at least t. The process
// and scheduling layers use it to model time spent outside the file system
// (CPU work, inherited start times).
func (c *Client) AdvanceClock(t sim.Cycles) { c.clock.AdvanceTo(t) }

// Compute charges d cycles of application CPU work on the client's core.
func (c *Client) Compute(d sim.Cycles) {
	end := c.cfg.Machine.Execute(c.cfg.Core, c.clock.Now(), d)
	c.clock.AdvanceTo(end)
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	return Stats{
		RPCs:           c.stats.rpcs.Load(),
		DirCacheHits:   c.stats.dcHits.Load(),
		DirCacheMisses: c.stats.dcMisses.Load(),
		Invalidations:  c.stats.invals.Load(),
		BatchedOps:     c.stats.batched.Load(),
		Readaheads:     c.stats.readaheads.Load(),
		VersionSkips:   c.stats.verSkips.Load(),

		FirstBlocks:      c.stats.firstBlks.Load(),
		FirstBlockMisses: c.stats.firstMiss.Load(),
	}
}

// expectVersion folds a version carried by one of this descriptor's own
// replies into its consistency window. bumped says the operation itself may
// have moved the version by exactly one; any other movement proves another
// client mutated the file, so the window is lost and the descriptor must not
// refresh the version cache at close.
func (of *openFile) expectVersion(v uint64, bumped bool) {
	if v == of.verKnown || (bumped && v == of.verKnown+1) {
		of.verKnown = v
		return
	}
	of.verLost = true
}

// settleVersion updates the version cache after a descriptor operation that
// re-established consistency (writeback + close/fsync/truncate): an intact
// window records the new version; a lost one evicts the entry so the next
// open invalidates.
func (c *Client) settleVersion(of *openFile) {
	if of.verLost {
		c.vcache.Delete(of.ino)
		return
	}
	c.keepVersion(of, of.verKnown)
}

// keepVersion records v as the file's version at a consistency point, while
// the descriptor holds blocks; a file without blocks keeps no entry. No skip
// is lost: an open consults the cache only for a file with blocks, and the
// change to the block list that gave it some moved its version past any
// recorded without them (DESIGN.md §8).
func (c *Client) keepVersion(of *openFile, v uint64) {
	if of.blocks.Len() == 0 {
		c.vcache.Delete(of.ino)
		return
	}
	c.vcache.Put(of.ino, v)
}

// Options returns the technique configuration this client runs with.
func (c *Client) Options() Options { return c.cfg.Options }

// nearRing builds the creation-affinity ring, in one exact-size slice: the
// placement members on this client's socket (every member when the socket
// has none), rotated to start at the designated nearby server — the member
// on the client's own core, or else the ring's core-th member. Only
// placement members qualify: drained servers must not receive new inodes.
// The ring follows from the core alone, so every process on one core places
// alike.
func (c *Client) nearRing() []int {
	rt := c.routing
	members := rt.Map.MembersRef()
	if len(members) == 0 {
		return []int{0}
	}
	topo := c.cfg.Machine.Topo
	onSocket := func(id int32) bool {
		return int(id) < len(rt.Cores) && topo.Socket(rt.Cores[id]) == topo.Socket(c.cfg.Core)
	}
	n, start := 0, -1
	for _, id := range members {
		if onSocket(id) {
			if start < 0 && rt.Cores[id] == c.cfg.Core {
				start = n
			}
			n++
		}
	}
	all := n == 0
	if all {
		n = len(members)
	}
	if start < 0 {
		start = c.cfg.Core % n
	}
	ring := make([]int, n)
	k := n - start // the k-th member found goes to ring[k % n]
	for _, id := range members {
		if all || onSocket(id) {
			ring[k%n] = int(id)
			k++
		}
	}
	return ring
}

// NearServer returns the designated nearby server: where creation affinity
// puts the inodes this client makes away from their entries, and its pipes.
func (c *Client) NearServer() int { return c.near[0] }

// charge accounts for client-library CPU time on this core.
func (c *Client) charge(d sim.Cycles) {
	end := c.cfg.Machine.Execute(c.cfg.Core, c.clock.Now(), d)
	c.clock.AdvanceTo(end)
}

// syscall charges the fixed per-system-call client library overhead.
func (c *Client) syscall() {
	c.stats.syscalls.Add(1)
	c.charge(c.cfg.Machine.Cost.ClientSyscall)
}

// beginOp opens a root span for one FS operation when the tracer samples
// it. It returns nil — and does no work at all — when tracing is off, the
// op lost the 1-in-N sampling draw, or a root is already open (nested FS
// calls and EEPOCH retries chain into the enclosing root). Call sites keep
// the defer behind the nil check so an untraced op allocates nothing.
func (c *Client) beginOp(name string) *trace.Span {
	if c.tr == nil || c.cur != nil {
		return nil
	}
	c.opSeq++
	if n := uint64(c.tr.Sample()); n > 1 && (c.opSeq-1)%n != 0 {
		return nil
	}
	id := c.tem.Next()
	s := &trace.Span{
		Trace: id, ID: id, Kind: trace.KindRoot, Name: name,
		Where: c.where(), Start: c.clock.Now(),
	}
	c.cur = s
	c.charge(c.cfg.Machine.Cost.TraceSpan)
	return s
}

// endOp closes and records the root span opened by beginOp.
func (c *Client) endOp(s *trace.Span, err error) {
	s.End = c.clock.Now()
	s.Err = errnoOf(err)
	c.cur = nil
	c.tr.Record(*s)
}

// opDone ends a public operation: the responses it drew since mark (taken
// when it started, by the defer statement) are recycled, and a bare
// client's lane is parked (see Config.AutoPark; no-op in serialized mode and
// for scheduler-managed clients).
func (c *Client) opDone(mark int) {
	c.releaseResps(mark)
	if c.cfg.AutoPark {
		c.cfg.Network.GateIdle(c.ep.ID)
	}
}

// errnoOf maps an operation error to the errno recorded on its span.
func errnoOf(err error) int32 {
	if err == nil {
		return 0
	}
	if e, ok := err.(fsapi.Errno); ok {
		return int32(e)
	}
	return -1
}

// noteEpochRefresh records one EEPOCH refresh-and-retry round under the
// current root span, so retry storms show up inside the op that suffered
// them rather than as detached noise. No-op when the op is untraced.
func (c *Client) noteEpochRefresh(op proto.Op, tries int) {
	if c.cur == nil {
		return
	}
	start := c.clock.Now()
	c.charge(c.cfg.Machine.Cost.TraceSpan)
	c.tr.Record(trace.Span{
		Trace: c.cur.Trace, ID: c.tem.Next(), Parent: c.cur.ID,
		Kind: trace.KindEpochRefresh, Name: op.String(), Where: c.where(),
		Start: start, End: c.clock.Now(), Idx: int32(tries),
	})
}

// staysWithEntry reports whether a new inode goes to its entry's server, so
// that the create is one coalesced message: with creation affinity disabled
// always, and otherwise when that server is on the client's socket (§3.6.4).
// It decides nothing else, and changes nothing.
func (c *Client) staysWithEntry(entrySrv int) bool {
	if !c.cfg.Options.CreationAffinity {
		return true
	}
	rt := c.routing
	topo := c.cfg.Machine.Topo
	return entrySrv < len(rt.Cores) && topo.Socket(rt.Cores[entrySrv]) == topo.Socket(c.cfg.Core)
}

// chooseInodeServer is the one place a new inode's server is chosen; call it
// once per inode made. An inode that does not stay with its entry goes to the
// designated nearby server — except a directory made in a distributed
// parent: those go round the creator's socket, one server each, starting at
// the designated one (DESIGN.md §7 "Where a new inode goes").
func (c *Client) chooseInodeServer(entrySrv int, ftype fsapi.FileType, parentDist bool) int {
	if c.staysWithEntry(entrySrv) {
		return entrySrv
	}
	if ftype != fsapi.TypeDir || !parentDist {
		return c.near[0]
	}
	srv := c.near[c.awayDirs%len(c.near)]
	c.awayDirs++
	return srv
}

// allocFD assigns the next free descriptor number to the open file.
func (c *Client) allocFD(of *openFile) fsapi.FD {
	fd := c.nextFD
	for {
		if _, used := c.fds[fd]; !used {
			break
		}
		fd++
	}
	c.nextFD = fd + 1
	of.localRefs++
	c.setFD(fd, of)
	return fd
}

// setFD installs a descriptor, making the table on first use.
func (c *Client) setFD(fd fsapi.FD, of *openFile) {
	if c.fds == nil {
		c.fds = make(map[fsapi.FD]*openFile)
	}
	c.fds[fd] = of
}

// getFD looks up an open descriptor.
func (c *Client) getFD(fd fsapi.FD) (*openFile, error) {
	of, ok := c.fds[fd]
	if !ok {
		return nil, fsapi.EBADF
	}
	return of, nil
}

// Getcwd returns the process working directory.
func (c *Client) Getcwd() string { return c.cwd }

// Chdir changes the working directory after verifying it is a directory.
func (c *Client) Chdir(path string) (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("chdir"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	abs := c.absPath(path)
	if _, _, err := c.resolveDir(abs); err != nil {
		return err
	}
	c.cwd = abs
	return nil
}

// Dup duplicates a descriptor; both numbers share the same description (and
// therefore the same offset).
func (c *Client) Dup(fd fsapi.FD) (fsapi.FD, error) {
	c.syscall()
	defer c.opDone(c.respMark())
	of, err := c.getFD(fd)
	if err != nil {
		return -1, err
	}
	return c.allocFD(of), nil
}

// OpenFDs returns the currently open descriptor numbers (sorted), nil when
// none is; used by the process layer when building exec fd tables and by
// tests.
func (c *Client) OpenFDs() []fsapi.FD {
	if len(c.fds) == 0 {
		return nil
	}
	out := make([]fsapi.FD, 0, len(c.fds))
	for fd := range c.fds {
		out = append(out, fd)
	}
	slices.Sort(out)
	return out
}

// CloseAll closes every open descriptor (process exit), in descriptor order.
// The per-file close/size-update RPCs to all touched servers are flushed as
// one scatter — same-server closes share a batch message and the round trips
// to distinct servers overlap — instead of one synchronous ping-pong per
// descriptor. Close errors are discarded: the process is exiting and has
// nobody to report them to. A pending clean close goes first; with nothing
// open that is all CloseAll sends.
func (c *Client) CloseAll() {
	defer c.releaseResps(c.respMark())
	if s := c.beginOp("closeall"); s != nil {
		defer func() { c.endOp(s, nil) }()
	}
	c.flushClose()
	if len(c.fds) == 0 {
		return
	}
	perSrv := make(map[int][]*proto.Request)
	for _, fd := range c.OpenFDs() {
		// Dup'd descriptors share a description: its last one closes it.
		of := c.fds[fd]
		delete(c.fds, fd)
		if of.localRefs--; of.localRefs > 0 {
			continue
		}
		req := new(proto.Request)
		c.closeRequest(of, req)
		if of.pipe {
			// Pipe closes can wake parked peers; they keep the plain path.
			_, _ = c.rpcOK(int(of.ino.Server), req)
			continue
		}
		perSrv[int(of.ino.Server)] = append(perSrv[int(of.ino.Server)], req)
	}
	if len(perSrv) > 0 {
		_, _ = c.scatter(perSrv)
	}
}

// Sync flushes every dirty open regular file, in descriptor order: dirty
// private-cache blocks are written back to the shared DRAM and the size
// updates for all touched servers travel as one overlapping scatter (batched
// per server). It is the multi-file counterpart of Fsync, and the point after
// which this client owes the servers nothing: a pending clean close has been
// sent too.
func (c *Client) Sync() (err error) {
	c.syscall()
	defer c.opDone(c.respMark())
	if s := c.beginOp("sync"); s != nil {
		defer func() { c.endOp(s, err) }()
	}
	c.flushClose()
	if len(c.fds) == 0 {
		return nil
	}
	var files []*openFile // flushed, in the order of their servers' responses
	perSrv := make(map[int][]*proto.Request)
	for _, fd := range c.OpenFDs() {
		of := c.fds[fd]
		if of.pipe || of.srvFd != proto.NilFd {
			continue
		}
		c.writebackFile(of)
		if !of.wrote {
			continue // nothing to say, or said through another descriptor
		}
		srv := int(of.ino.Server)
		files = append(files, of)
		perSrv[srv] = append(perSrv[srv], &proto.Request{Op: proto.OpSetSize, Target: of.ino, Size: of.size})
		of.wrote, of.firstBlock = false, false // acknowledged below, or put back
	}
	if len(files) == 0 {
		return nil
	}
	resps, err := c.scatter(perSrv)
	for _, of := range files {
		if err == nil {
			srv := int(of.ino.Server)
			r := resps[srv][0]
			resps[srv] = resps[srv][1:]
			if r.Err == fsapi.OK {
				// SET_SIZE bumped the version; settle each descriptor's window
				// so a reopen after Sync can still skip invalidation.
				of.expectVersion(r.Version, true)
				c.settleVersion(of)
				continue
			}
			err = r.Err
		}
		of.wrote = true // not acknowledged: the close carries the size again
	}
	return err
}
