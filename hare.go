// Package hare is the public API of this reproduction of "Hare: a file
// system for non-cache-coherent multicores" (Gruenwald, Sironi, Kaashoek,
// Zeldovich; EuroSys 2015).
//
// A Hare deployment consists of per-core client libraries and a set of file
// servers that communicate by message passing and share a buffer cache in
// (non-cache-coherent) DRAM. This package re-exports the assembled system
// from the internal packages so applications can:
//
//   - build a deployment (New / Config),
//   - attach POSIX-like clients to cores (System.NewClient), and
//   - run multi-process workloads through the scheduling servers
//     (System.Procs, the sched package's process abstraction).
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// mapping from the paper's design to the packages in this repository.
package hare

import (
	"io"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Re-exported configuration types.
type (
	// Config describes a Hare deployment (cores, servers, techniques).
	Config = core.Config
	// Techniques toggles the five techniques evaluated in the paper.
	Techniques = core.Techniques
	// System is a running Hare deployment.
	System = core.System
	// Client is the per-process client library implementing the
	// POSIX-like API.
	Client = client.Client
	// Options are the client-side technique toggles.
	Options = client.Options

	// FS is the backend-agnostic POSIX-like interface implemented by the
	// Hare client library (and by the baseline file systems used in the
	// evaluation harness).
	FS = fsapi.Client
	// FD is a process-local file descriptor.
	FD = fsapi.FD
	// Mode holds permission bits.
	Mode = fsapi.Mode
	// Stat is file metadata.
	Stat = fsapi.Stat
	// Dirent is one directory entry.
	Dirent = fsapi.Dirent
	// MkdirOpt controls directory creation (including Hare's per-directory
	// distribution flag).
	MkdirOpt = fsapi.MkdirOpt
	// Errno is a POSIX-style error number.
	Errno = fsapi.Errno

	// Durability configures the write-ahead-log subsystem (per-server
	// logging, checkpoints, and the Crash/Recover API);
	// the zero value disables it, matching the paper's in-memory-only
	// design. See DESIGN.md §6.
	Durability = core.Durability
	// RecoveryStats describes one server's crash recovery (checkpoint
	// bytes loaded, records replayed, virtual time charged).
	RecoveryStats = wal.RecoveryStats
	// WalStats counts one server's write-ahead-log activity.
	WalStats = wal.Stats

	// Replication configures WAL-shipped shard replication (Config.
	// Replication; requires Durability): each server ships its log batches
	// to a ring follower so a crashed server can be failed over by
	// promoting the warm replica (System.Failover) instead of replaying
	// its log. The zero value disables it. See DESIGN.md §12.
	Replication = repl.Config
	// ReplMode selects the replication discipline (ReplOff / ReplSync /
	// ReplAsync).
	ReplMode = repl.Mode
	// FailoverReport describes one promotion: the follower consumed, the
	// stall, the published epoch, and any acked records lost (zero under
	// sync replication).
	FailoverReport = core.FailoverReport
	// ReplStats reports one primary's shipping horizons (System.ReplicaStats).
	ReplStats = core.ReplStats

	// Economy aggregates a deployment's message-economy counters
	// (messages, bytes, batched sub-ops, queueing delay, migrated shard
	// entries); returned by System.MessageEconomy. See DESIGN.md §7, §9.
	Economy = stats.Economy

	// TraceConfig configures request tracing and latency histograms
	// (Config.Trace); the zero value disables tracing. See DESIGN.md §11.
	TraceConfig = trace.Config
	// Tracer collects spans and latency histograms; returned by
	// System.Tracer (nil when tracing is disabled).
	Tracer = trace.Tracer
	// Span is one traced interval of a request's life.
	Span = trace.Span
	// LatencyQuantiles summarizes one latency histogram (p50/p95/p99/p999).
	LatencyQuantiles = stats.Quantiles

	// PlacePolicy selects how directory-entry shards are placed on file
	// servers (DESIGN.md §9): PlaceModulo reproduces the paper's static
	// hash % NSERVERS routing; PlaceRing uses consistent hashing so
	// System.AddServer / System.RemoveServer move only ~1/N of the shards.
	PlacePolicy = place.Policy

	// Proc is a simulated process bound to a core and a client library.
	Proc = sched.Proc
	// ProcFunc is the body of a simulated process.
	ProcFunc = sched.ProcFunc
	// Handle waits for a spawned process.
	Handle = sched.Handle
	// Policy selects where exec places new processes.
	Policy = sched.Policy
	// Cycles is virtual time in CPU cycles.
	Cycles = sim.Cycles
)

// Open flags (subset of POSIX).
const (
	ORdOnly = fsapi.ORdOnly
	OWrOnly = fsapi.OWrOnly
	ORdWr   = fsapi.ORdWr
	OCreate = fsapi.OCreate
	OExcl   = fsapi.OExcl
	OTrunc  = fsapi.OTrunc
	OAppend = fsapi.OAppend
)

// Whence values for Seek.
const (
	SeekSet = fsapi.SeekSet
	SeekCur = fsapi.SeekCur
	SeekEnd = fsapi.SeekEnd
)

// Common errno values.
const (
	ENOENT    = fsapi.ENOENT
	EEXIST    = fsapi.EEXIST
	ENOTDIR   = fsapi.ENOTDIR
	EISDIR    = fsapi.EISDIR
	ENOTEMPTY = fsapi.ENOTEMPTY
	EBADF     = fsapi.EBADF
	EACCES    = fsapi.EACCES
	EINVAL    = fsapi.EINVAL
	EPIPE     = fsapi.EPIPE
	ENOSPC    = fsapi.ENOSPC
)

// Placement policies for remote execution.
const (
	PolicyRoundRobin = sched.PolicyRoundRobin
	PolicyRandom     = sched.PolicyRandom
	PolicyLocal      = sched.PolicyLocal
)

// Shard-placement policies for elastic deployments (Config.PlacePolicy).
const (
	PlaceModulo = place.PolicyModulo
	PlaceRing   = place.PolicyRing
)

// Replication modes (Config.Replication.Mode). ReplSync holds each client
// reply for the follower's ack, so promotion never loses an acknowledged
// write; ReplAsync ships without waiting and bounds the loss at one window.
const (
	ReplOff   = repl.Off
	ReplSync  = repl.Sync
	ReplAsync = repl.Async
)

// Mode constants.
const (
	Mode644 = fsapi.Mode644
	Mode755 = fsapi.Mode755
)

// DefaultConfig mirrors the paper's standard setup: a 40-core machine in the
// timesharing configuration with every technique enabled.
func DefaultConfig() Config { return core.DefaultConfig() }

// AllTechniques enables every technique (the standard Hare configuration).
func AllTechniques() Techniques { return core.AllTechniques() }

// New builds (but does not start) a Hare deployment.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// Start builds and starts a Hare deployment in one call.
func Start(cfg Config) (*System, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sys.Start()
	return sys, nil
}

// IsErrno reports whether err is the given POSIX error number.
func IsErrno(err error, want Errno) bool { return fsapi.IsErrno(err, want) }

// WriteChromeTrace exports spans (from Tracer.Spans) as Chrome trace_event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []Span) error { return trace.WriteChrome(w, spans) }
