package server

import (
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

// opRow is how this server serves one op (what the op is, proto.OpInfo
// says): its handler, and what serving it costs in virtual time.
type opRow struct {
	// serve answers the request. park is the handler of an op that may
	// wait on its own object — the rmdir lock, a pipe, a batch's shards —
	// and defer its reply, reporting true when it parked (wait.go). A row
	// has one of them, or neither for an op the server does not serve.
	serve func(*Server, *proto.Request) *proto.Response
	park  func(*Server, *proto.Request, msg.Envelope) (*proto.Response, bool)
	// station is the op's charge in the cost model; size, when set, adds
	// the term that grows with the bytes the request moves or the entries
	// it scans.
	station func(*sim.CostModel) sim.Cycles
	size    func(*Server, *proto.Request) sim.Cycles
}

// ops is the file server's half of the op table, indexed by op. It is filled
// by init: the handlers reach dispatch, which reads it.
var ops [proto.NumOps]opRow

func init() {
	ops = [proto.NumOps]opRow{
		proto.OpLookup:          {serve: (*Server).handleLookup, station: atLookup},
		proto.OpAddMap:          {serve: (*Server).handleAddMap, station: atCreate},
		proto.OpRmMap:           {serve: (*Server).handleRmMap, station: atUnlink},
		proto.OpReadDirShard:    {serve: (*Server).handleReadDirShard, station: atReadDir, size: (*Server).shardEnts},
		proto.OpCreateCoalesced: {serve: (*Server).handleCreateCoalesced, station: atCreateOpen},

		proto.OpMknod:       {serve: (*Server).handleMknod, station: atCreate},
		proto.OpLinkInode:   {serve: (*Server).handleLinkInode, station: atUnlink},
		proto.OpUnlinkInode: {serve: (*Server).handleUnlinkInode, station: atUnlink},
		proto.OpOpenInode:   {serve: (*Server).handleOpenInode, station: atOpen},
		proto.OpCloseInode:  {serve: (*Server).handleCloseInode, station: atClose},
		proto.OpGetBlocks:   {serve: (*Server).handleGetBlocks, station: atBlockOp},
		proto.OpExtend:      {serve: (*Server).handleExtend, station: atBlockOp},
		proto.OpSetSize:     {serve: (*Server).handleSetSize, station: atBlockOp},
		proto.OpTruncate:    {serve: (*Server).handleTruncate, station: atBlockOp},
		proto.OpStat:        {serve: (*Server).handleStat, station: atStat},
		proto.OpReadAt:      {serve: (*Server).handleReadAt, station: atFdOp, size: (*Server).dramLines},
		proto.OpWriteAt:     {serve: (*Server).handleWriteAt, station: atFdOp, size: (*Server).dramLines},

		proto.OpRmdirLock:    {park: (*Server).handleRmdirLock, station: atRmdir},
		proto.OpRmdirPrepare: {serve: (*Server).handleRmdirPrepare, station: atRmdir},
		proto.OpRmdirCommit:  {serve: (*Server).handleRmdirCommit, station: atRmdir},
		proto.OpRmdirAbort:   {serve: (*Server).handleRmdirAbort, station: atRmdir},
		proto.OpRmdirUnlock:  {serve: (*Server).handleRmdirUnlock, station: atRmdir},
		proto.OpRmdirFinish:  {serve: (*Server).handleRmdirFinish, station: atRmdir},

		proto.OpFdShare:   {serve: (*Server).handleFdShare, station: atFdOp},
		proto.OpFdIncRef:  {serve: (*Server).handleFdIncRef, station: atFdOp},
		proto.OpFdDecRef:  {serve: (*Server).handleFdDecRef, station: atFdOp},
		proto.OpFdUnshare: {serve: (*Server).handleFdUnshare, station: atFdOp},
		proto.OpFdRead:    {serve: (*Server).handleFdRead, station: atFdOp, size: (*Server).dramLines},
		proto.OpFdWrite:   {serve: (*Server).handleFdWrite, station: atFdOp, size: (*Server).dramLines},
		proto.OpFdSeek:    {serve: (*Server).handleFdSeek, station: atFdOp},
		proto.OpFdGetInfo: {serve: (*Server).handleFdGetInfo, station: atFdOp},

		proto.OpPipeCreate:     {serve: (*Server).handlePipeCreate, station: atPipeOp},
		proto.OpPipeRead:       {park: (*Server).handlePipeRead, station: atPipeOp, size: (*Server).copyLines},
		proto.OpPipeWrite:      {park: (*Server).handlePipeWrite, station: atPipeOp, size: (*Server).copyLines},
		proto.OpPipeIncReader:  {serve: (*Server).handlePipeIncRef, station: atPipeOp},
		proto.OpPipeIncWriter:  {serve: (*Server).handlePipeIncRef, station: atPipeOp},
		proto.OpPipeCloseRead:  {serve: (*Server).handlePipeClose, station: atPipeOp},
		proto.OpPipeCloseWrite: {serve: (*Server).handlePipeClose, station: atPipeOp},

		proto.OpCheckpoint:  {serve: (*Server).handleCheckpoint, station: atStat},
		proto.OpBatch:       {park: (*Server).handleBatch, station: atStat},
		proto.OpShardFreeze: {serve: (*Server).handleShardFreeze, station: atStat},
		proto.OpShardPull:   {serve: (*Server).handleShardPull, station: atReadDir, size: (*Server).allEnts},
		proto.OpShardCommit: {serve: (*Server).handleShardCommit, station: atReadDir, size: (*Server).allEnts},
		proto.OpPing:        {serve: (*Server).handlePing, station: atStat},
	}
}

// The stations: each op's charge in the cost model.
var (
	atLookup     = func(c *sim.CostModel) sim.Cycles { return c.ServeLookup }
	atCreate     = func(c *sim.CostModel) sim.Cycles { return c.ServeCreate }
	atCreateOpen = func(c *sim.CostModel) sim.Cycles { return c.ServeCreate + c.ServeOpen/2 }
	atUnlink     = func(c *sim.CostModel) sim.Cycles { return c.ServeUnlink }
	atReadDir    = func(c *sim.CostModel) sim.Cycles { return c.ServeReadDir }
	atOpen       = func(c *sim.CostModel) sim.Cycles { return c.ServeOpen }
	atClose      = func(c *sim.CostModel) sim.Cycles { return c.ServeClose }
	atBlockOp    = func(c *sim.CostModel) sim.Cycles { return c.ServeBlockOp }
	atStat       = func(c *sim.CostModel) sim.Cycles { return c.ServeStat }
	atRmdir      = func(c *sim.CostModel) sim.Cycles { return c.ServeRmdir }
	atFdOp       = func(c *sim.CostModel) sim.Cycles { return c.ServeFdOp }
	atPipeOp     = func(c *sim.CostModel) sim.Cycles { return c.ServePipeOp }
)

// row returns op's row; the empty one for a number no op has.
func row(op proto.Op) *opRow {
	if op < proto.NumOps {
		return &ops[op]
	}
	return &unserved
}

var unserved opRow

// dispatch routes the request to its handler. The bool result is true if the
// request was parked (no reply should be sent yet).
func (s *Server) dispatch(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	s.from = env.Src
	// Only a batch gives the chain target a meaning, and only to the ops
	// dispatchBatch has resolved it for by now; no handler ever sees it.
	if req.Target == proto.PrevInode {
		return s.errResp(fsapi.EINVAL), false
	}
	// Placement-routed requests pass the epoch gate first: a stale (or
	// ahead-of-us) epoch is answered with EEPOCH, and entry mutations on a
	// frozen server park until the migration commits (DESIGN.md §9). Then
	// an entry op on a shard an rmdir has marked waits for its outcome.
	if resp, parked, handled := s.epochGate(req, env); handled {
		return resp, parked
	}
	if q := s.markWaits(req.Op, req.Dir); q != nil {
		q.park(req, env)
		return nil, true
	}
	r := row(req.Op)
	switch {
	case r.park != nil:
		return r.park(s, req, env)
	case r.serve != nil:
		return r.serve(s, req), false
	}
	return s.errResp(fsapi.ENOSYS), false
}

// opCost returns the virtual service time of a request: its op's station plus
// the size term. An op this server does not serve is refused at a stat's
// price.
func (s *Server) opCost(req *proto.Request) sim.Cycles {
	r := row(req.Op)
	if r.station == nil {
		return s.cfg.Machine.Cost.ServeStat
	}
	c := r.station(&s.cfg.Machine.Cost)
	if r.size != nil {
		c += r.size(s, req)
	}
	return c
}

// moved is the larger of the bytes a request asks for and the bytes it
// carries.
func moved(req *proto.Request) int {
	return max(int(req.Count), len(req.Data))
}

// dramLines prices the lines a request moves through shared DRAM.
func (s *Server) dramLines(req *proto.Request) sim.Cycles {
	return sim.LineCost(s.cfg.Machine.Cost.DRAMPerLine, moved(req))
}

// copyLines prices the lines a request copies within the server's core.
func (s *Server) copyLines(req *proto.Request) sim.Cycles {
	return sim.LineCost(s.cfg.Machine.Cost.CopyPerLine, moved(req))
}

// shardEnts prices a listing by the entries of the shard it reads, counted
// before the handler runs.
func (s *Server) shardEnts(req *proto.Request) sim.Cycles {
	n := 0
	if shard, ok := s.dirs.Get(req.Dir); ok {
		n = shard.ents.Len()
	}
	return sim.Cycles(n) * s.cfg.Machine.Cost.ServePerEnt
}

// allEnts prices a migration step by every entry this server holds: what it
// scans.
func (s *Server) allEnts(*proto.Request) sim.Cycles {
	return sim.Cycles(s.entCount.Load()) * s.cfg.Machine.Cost.ServePerEnt
}

// handleBatch serves a batch on re-dispatch, after it had parked on a marked
// shard or a frozen server (handle serves a fresh one directly).
func (s *Server) handleBatch(req *proto.Request, env msg.Envelope) (*proto.Response, bool) {
	subs, stop, err := s.decodeBatch(req)
	if err != nil {
		return s.errResp(fsapi.EINVAL), false
	}
	return s.dispatchBatch(subs, stop, req, env)
}

func (s *Server) handlePing(*proto.Request) *proto.Response {
	return s.resp(proto.Response{})
}
