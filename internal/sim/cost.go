package sim

// Cycles is a duration or point in virtual time, measured in CPU cycles of
// the simulated machine.
type Cycles uint64

// CostModel holds the cycle costs used for virtual-time accounting. The
// defaults are calibrated loosely against the measurements reported in the
// paper (§5.3.3): an RPC round trip costs a few thousand cycles, sharing a
// core between a server and an application adds context-switch and
// cache-pollution overhead of a few thousand cycles per RPC, and the
// user-space NFS baseline pays an order of magnitude more per operation for
// its loopback transport.
//
// The struct is 38 words: hot paths read it through a pointer, never by value.
type CostModel struct {
	// ClockHz is the nominal clock rate used to convert cycles to seconds.
	ClockHz float64

	// Message passing.
	MsgSend        Cycles // client-side cost to marshal and enqueue a message
	MsgRecv        Cycles // receiver-side cost to dequeue and unmarshal
	MsgLatencySame Cycles // propagation, same core
	MsgLatencyNear Cycles // propagation, same socket
	MsgLatencyFar  Cycles // propagation, cross socket
	MsgPerByte     Cycles // additional cost per 64 bytes of payload

	// Core sharing (timeshare configuration).
	ContextSwitch  Cycles // entering/leaving the server when co-located
	CachePollution Cycles // extra misses caused by sharing the L1/L2

	// Server-side service times per operation class.
	ServeLookup  Cycles
	ServeCreate  Cycles
	ServeUnlink  Cycles
	ServeOpen    Cycles
	ServeClose   Cycles
	ServeReadDir Cycles // base cost; per-entry cost added separately
	ServePerEnt  Cycles // per directory entry returned
	ServeMkdir   Cycles
	ServeRmdir   Cycles
	ServeRename  Cycles // per ADD_MAP / RM_MAP message
	ServeStat    Cycles
	ServeFdOp    Cycles // shared-fd read/write/offset ops
	ServeBlockOp Cycles // block allocation / truncate bookkeeping
	ServePipeOp  Cycles
	ServeExec    Cycles // scheduling server spawn cost

	// Client-side library work per operation (path parsing, fd table, ...).
	ClientSyscall Cycles

	// Tracing overhead per recorded span (internal/trace). Charged only
	// for sampled operations, so tracing-off runs are cycle-identical to
	// builds without the tracer at all — and the sampled-tracing overhead
	// reported by hare-bench is a modeled cost, not a free lunch.
	TraceSpan Cycles

	// Data movement, in cycles per 64-byte line.
	DRAMPerLine  Cycles // shared DRAM access (buffer cache miss in private cache)
	CachePerLine Cycles // private cache hit
	CopyPerLine  Cycles // memcpy within a core

	// Durability (write-ahead logging, when enabled).
	WalFlush        Cycles // base cost of flushing a log batch
	WalPerLine      Cycles // cost per 64 bytes appended to / replayed from the log
	WalReplayPerRec Cycles // per-record bookkeeping cost during recovery

	// Baseline: coherent shared-memory file system (Linux ramfs/tmpfs).
	RamfsOp      Cycles // typical metadata operation (no messaging)
	RamfsLockOp  Cycles // critical-section length for a directory operation
	RamfsPerLine Cycles // data copy per 64-byte line

	// Baseline: user-space NFS (UNFS3) over loopback.
	LoopbackRPC Cycles // per-RPC overhead through kernel + loopback
	UnfsServeOp Cycles // server-side service time per op
	UnfsPerLine Cycles // data transfer per 64-byte line (goes over RPC)
}

// DefaultCostModel returns the calibrated default cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		ClockHz: 2.4e9,

		MsgSend:        300,
		MsgRecv:        250,
		MsgLatencySame: 400,
		MsgLatencyNear: 700,
		MsgLatencyFar:  1400,
		MsgPerByte:     2,

		ContextSwitch:  1500,
		CachePollution: 2100,

		ServeLookup:  700,
		ServeCreate:  1200,
		ServeUnlink:  900,
		ServeOpen:    1000,
		ServeClose:   500,
		ServeReadDir: 800,
		ServePerEnt:  40,
		ServeMkdir:   1100,
		ServeRmdir:   900,
		ServeRename:  980, // average of ADD_MAP (1211) and RM_MAP (756)
		ServeStat:    600,
		ServeFdOp:    650,
		ServeBlockOp: 550,
		ServePipeOp:  600,
		ServeExec:    6000,

		ClientSyscall: 450,

		TraceSpan: 40,

		DRAMPerLine:  28,
		CachePerLine: 4,
		CopyPerLine:  8,

		WalFlush:        9000, // a battery-backed DRAM log region: cheaper than an SSD fsync, far dearer than a store
		WalPerLine:      10,
		WalReplayPerRec: 400,

		RamfsOp:      1900,
		RamfsLockOp:  950,
		RamfsPerLine: 14,

		LoopbackRPC: 36000,
		UnfsServeOp: 2200,
		UnfsPerLine: 46,
	}
}

// Seconds converts a cycle count to seconds under this cost model.
func (c *CostModel) Seconds(cy Cycles) float64 {
	return float64(cy) / c.ClockHz
}

// MsgLatency returns the one-way propagation latency for the given distance
// and payload size in bytes.
func (c *CostModel) MsgLatency(d Distance, payloadBytes int) Cycles {
	var base Cycles
	switch d {
	case DistSameCore:
		base = c.MsgLatencySame
	case DistSameSocket:
		base = c.MsgLatencyNear
	default:
		base = c.MsgLatencyFar
	}
	lines := Cycles((payloadBytes + 63) / 64)
	return base + lines*c.MsgPerByte
}

// MinMsgLatency returns the smallest latency MsgLatency can report: the
// nearest distance with an empty payload. It is the parallel engine's
// lookahead (DESIGN.md §13).
func (c *CostModel) MinMsgLatency() Cycles {
	return min(c.MsgLatencySame, c.MsgLatencyNear, c.MsgLatencyFar)
}

// LineCost returns cost*ceil(bytes/64): the number of cycles to move the
// given number of bytes at a per-64-byte-line cost.
func LineCost(perLine Cycles, bytes int) Cycles {
	if bytes <= 0 {
		return 0
	}
	return perLine * Cycles((bytes+63)/64)
}
