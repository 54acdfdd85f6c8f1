package proto

// Op identifies the operation requested by a message.
type Op uint16

// File-server operations.
const (
	OpInvalid Op = iota

	// Pathname / directory-entry operations (addressed by hash server).
	OpLookup // dir+name -> inode,server,type
	OpAddMap // add (or replace) a directory entry
	OpRmMap  // remove a directory entry
	OpReadDirShard

	// Inode operations (addressed to the inode's home server).
	OpMknod       // create an inode (file, dir or pipe)
	OpLinkInode   // nlink++
	OpUnlinkInode // nlink--; free when unreferenced
	OpOpenInode   // permission check, fd refcount++, return block list
	OpCloseInode  // fd refcount--
	OpGetBlocks   // refresh block list and size
	OpExtend      // allocate blocks up to a new size
	OpSetSize     // record new size after direct writes
	OpTruncate    // shrink the file (block reuse deferred)
	OpStat
	OpReadAt  // read file data through the server (direct access disabled)
	OpWriteAt // write file data through the server (direct access disabled)

	// Coalesced operations (single message doing several things on one
	// server, §3.6.3).
	OpCreateCoalesced // AddMap + Mknod + OpenInode in one message

	// rmdir three-phase protocol (§3.3).
	OpRmdirLock    // phase 0: serialize at the directory's home server
	OpRmdirPrepare // phase 1: mark for deletion if shard is empty
	OpRmdirCommit  // phase 2a: really delete
	OpRmdirAbort   // phase 2b: clear the deletion mark
	OpRmdirUnlock  // release the home-server serialization
	OpRmdirFinish  // remove the directory inode itself at its home server

	// Shared file descriptors (§3.4).
	OpFdShare   // migrate an offset to the server; refcount = 2
	OpFdIncRef  // another process inherited the shared fd
	OpFdDecRef  // a process closed its copy; returns offset when count==1
	OpFdUnshare // last holder pulls the offset back to its client library
	OpFdRead    // read through the server at the shared offset
	OpFdWrite   // write through the server at the shared offset
	OpFdSeek    // reposition the shared offset
	OpFdGetInfo // current offset (for fstat/lseek(0,CUR))

	// Pipes.
	OpPipeCreate
	OpPipeRead
	OpPipeWrite
	OpPipeIncReader
	OpPipeIncWriter
	OpPipeCloseRead
	OpPipeCloseWrite

	// Durability (write-ahead log, DESIGN.md §6).
	OpCheckpoint // snapshot server state and truncate the log

	// Generic op batching (DESIGN.md §7): one message carrying several
	// independent sub-requests for the same server, answered by one message
	// carrying the per-sub-op responses. The envelope Request carries the
	// marshaled batch in Data; a sender hands the sub-requests over in Subs
	// and they are encoded there in place (batch.go).
	OpBatch

	// Shard migration (elastic placement, DESIGN.md §9). Driven by the
	// deployment's control plane against each server individually — servers
	// still never talk to each other.
	OpShardFreeze // announce a pending epoch: entry mutations park
	OpShardPull   // copy out the entries leaving this server under a new map
	OpShardCommit // install incoming entries, drop outgoing, adopt the epoch

	// Directory-cache invalidation callback (server -> client).
	OpInvalidate

	// Scheduling-server operations (§3.5).
	OpExec   // run a program on the scheduling server's core
	OpSignal // forward a signal to a process
	OpPing   // liveness / latency measurement (used at boot for affinity)

	// Shard replication (primary -> follower WAL shipping, DESIGN.md §12).
	// These travel on each server's replication-plane endpoint, never its
	// request inbox, so a follower can ack while its request loop is busy.
	OpReplAppend // ship a flushed record batch (or a rebase snapshot)
	OpReplSeal   // control plane: stop ingesting, return the replica snapshot
)

// Addressing says which request field names what an op works on.
type Addressing uint8

const (
	// AddrNone: no field the server keys on — a create (MKNOD, PIPE_CREATE),
	// the control plane, a ping.
	AddrNone Addressing = iota
	// AddrShard: Dir names a directory whose shard on this server the op
	// reads or changes (with Name, one entry of it). A request routed through
	// the placement map carries its epoch and meets the epoch gate, and a
	// batch is screened against the shard's rmdir mark (DESIGN.md §7, §9).
	AddrShard
	// AddrInode: Target names an inode (a file, a directory at its home, a
	// pipe) at the server that stores it. A batchable one may name it as
	// PrevInode, the inode the previous sub-response carries.
	AddrInode
	// AddrFd: Fd names a shared file descriptor at the server that holds it;
	// FD_SHARE makes one from the open inode Target names.
	AddrFd
)

// OpInfo is what an op is. Every package that needs to know reads it here,
// through Op.Info, instead of deciding it again; adding an op is one row of
// this table and one of the file server's (DESIGN.md §2).
type OpInfo struct {
	// Name is the op's name in traces, stats and errors.
	Name string
	// Batchable: the op may travel inside an OP_BATCH (DESIGN.md §7). Left
	// out are the ops that park on anything but an rmdir mark (pipes, the
	// rmdir lock), those that drive the rmdir protocol (which sets marks
	// mid-request) and the control plane. The server answers any other
	// sub-request ENOSYS; a client asks before it wraps a request it would
	// otherwise have sent bare.
	Batchable bool
	// Addr is the field that names what the op works on.
	Addr Addressing
	// ReadOnly: serving the op changes no entry, inode, descriptor, pipe or
	// epoch, and so nothing a checkpoint holds; a frozen server serves the
	// read-only shard ops at the current epoch (DESIGN.md §9). LOOKUP
	// records a tracker: that changes who is tracked, never an entry's
	// value, and SHARD_COMMIT invalidates the trackers of the entries that
	// move.
	ReadOnly bool
	// Idempotent: the network may deliver the request twice. A second
	// serving answers as the first did and leaves the server as the first
	// left it, which the chaos harness's duplicate faults rely on.
	Idempotent bool
}

// The columns: name, batchable, addressing, read-only, idempotent.
var opInfo = [...]OpInfo{
	OpLookup:          {"LOOKUP", true, AddrShard, true, true},
	OpAddMap:          {"ADD_MAP", true, AddrShard, false, false},
	OpRmMap:           {"RM_MAP", true, AddrShard, false, false},
	OpReadDirShard:    {"READDIR", true, AddrShard, true, true},
	OpMknod:           {"MKNOD", true, AddrNone, false, false},
	OpLinkInode:       {"LINK", true, AddrInode, false, false},
	OpUnlinkInode:     {"UNLINK_INODE", true, AddrInode, false, false},
	OpOpenInode:       {"OPEN", true, AddrInode, false, false},
	OpCloseInode:      {"CLOSE", true, AddrInode, false, false},
	OpGetBlocks:       {"GET_BLOCKS", true, AddrInode, true, true},
	OpExtend:          {"EXTEND", true, AddrInode, false, false},
	OpSetSize:         {"SET_SIZE", true, AddrInode, false, false},
	OpTruncate:        {"TRUNCATE", true, AddrInode, false, false},
	OpStat:            {"STAT", true, AddrInode, true, true},
	OpReadAt:          {"READ_AT", true, AddrInode, true, false},
	OpWriteAt:         {"WRITE_AT", true, AddrInode, false, false},
	OpCreateCoalesced: {"CREATE_COALESCED", true, AddrShard, false, false},
	OpRmdirLock:       {"RMDIR_LOCK", false, AddrInode, false, false},
	OpRmdirPrepare:    {"RMDIR_PREPARE", false, AddrShard, false, false},
	OpRmdirCommit:     {"RMDIR_COMMIT", false, AddrShard, false, false},
	OpRmdirAbort:      {"RMDIR_ABORT", false, AddrShard, false, false},
	OpRmdirUnlock:     {"RMDIR_UNLOCK", false, AddrInode, false, false},
	OpRmdirFinish:     {"RMDIR_FINISH", false, AddrInode, false, false},
	OpFdShare:         {"FD_SHARE", true, AddrFd, false, false},
	OpFdIncRef:        {"FD_INCREF", true, AddrFd, false, false},
	OpFdDecRef:        {"FD_DECREF", true, AddrFd, false, false},
	OpFdUnshare:       {"FD_UNSHARE", true, AddrFd, false, false},
	OpFdRead:          {"FD_READ", true, AddrFd, false, false},
	OpFdWrite:         {"FD_WRITE", true, AddrFd, false, false},
	OpFdSeek:          {"FD_SEEK", true, AddrFd, false, false},
	OpFdGetInfo:       {"FD_GETINFO", true, AddrFd, true, true},
	OpPipeCreate:      {"PIPE_CREATE", false, AddrNone, false, false},
	OpPipeRead:        {"PIPE_READ", false, AddrInode, false, false},
	OpPipeWrite:       {"PIPE_WRITE", false, AddrInode, false, false},
	OpPipeIncReader:   {"PIPE_INC_R", false, AddrInode, false, false},
	OpPipeIncWriter:   {"PIPE_INC_W", false, AddrInode, false, false},
	OpPipeCloseRead:   {"PIPE_CLOSE_R", false, AddrInode, false, false},
	OpPipeCloseWrite:  {"PIPE_CLOSE_W", false, AddrInode, false, false},
	OpCheckpoint:      {"CHECKPOINT", false, AddrNone, false, false},
	OpBatch:           {"BATCH", false, AddrNone, false, false},
	OpShardFreeze:     {"SHARD_FREEZE", false, AddrNone, false, false},
	OpShardPull:       {"SHARD_PULL", false, AddrNone, true, false},
	OpShardCommit:     {"SHARD_COMMIT", false, AddrNone, false, false},
	OpInvalidate:      {"INVALIDATE", false, AddrNone, false, false},
	OpExec:            {"EXEC", false, AddrNone, false, false},
	OpSignal:          {"SIGNAL", false, AddrNone, false, false},
	OpPing:            {"PING", true, AddrNone, true, true},
	OpReplAppend:      {"REPL_APPEND", false, AddrNone, false, false},
	OpReplSeal:        {"REPL_SEAL", false, AddrNone, false, false},
}

// NumOps is one past the highest op number: every op is below it, and
// OpInvalid is the only number below it that names no op.
const NumOps = Op(len(opInfo))

// Info returns what the op is: its row of the table, or the zero OpInfo for
// a number no op has.
func (o Op) Info() OpInfo {
	if o < NumOps {
		return opInfo[o]
	}
	return OpInfo{}
}

// String returns the wire name of the operation.
func (o Op) String() string {
	if name := o.Info().Name; name != "" {
		return name
	}
	return "OP_UNKNOWN"
}

// Message kinds used at the msg layer.
const (
	KindRequest  uint16 = 1
	KindResponse uint16 = 2
	KindCallback uint16 = 3
)
