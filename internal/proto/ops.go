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

var opNames = map[Op]string{
	OpLookup:          "LOOKUP",
	OpAddMap:          "ADD_MAP",
	OpRmMap:           "RM_MAP",
	OpReadDirShard:    "READDIR",
	OpMknod:           "MKNOD",
	OpLinkInode:       "LINK",
	OpUnlinkInode:     "UNLINK_INODE",
	OpOpenInode:       "OPEN",
	OpCloseInode:      "CLOSE",
	OpGetBlocks:       "GET_BLOCKS",
	OpExtend:          "EXTEND",
	OpSetSize:         "SET_SIZE",
	OpTruncate:        "TRUNCATE",
	OpStat:            "STAT",
	OpReadAt:          "READ_AT",
	OpWriteAt:         "WRITE_AT",
	OpCreateCoalesced: "CREATE_COALESCED",
	OpRmdirLock:       "RMDIR_LOCK",
	OpRmdirPrepare:    "RMDIR_PREPARE",
	OpRmdirCommit:     "RMDIR_COMMIT",
	OpRmdirAbort:      "RMDIR_ABORT",
	OpRmdirUnlock:     "RMDIR_UNLOCK",
	OpRmdirFinish:     "RMDIR_FINISH",
	OpFdShare:         "FD_SHARE",
	OpFdIncRef:        "FD_INCREF",
	OpFdDecRef:        "FD_DECREF",
	OpFdUnshare:       "FD_UNSHARE",
	OpFdRead:          "FD_READ",
	OpFdWrite:         "FD_WRITE",
	OpFdSeek:          "FD_SEEK",
	OpFdGetInfo:       "FD_GETINFO",
	OpPipeCreate:      "PIPE_CREATE",
	OpPipeRead:        "PIPE_READ",
	OpPipeWrite:       "PIPE_WRITE",
	OpPipeIncReader:   "PIPE_INC_R",
	OpPipeIncWriter:   "PIPE_INC_W",
	OpPipeCloseRead:   "PIPE_CLOSE_R",
	OpPipeCloseWrite:  "PIPE_CLOSE_W",
	OpCheckpoint:      "CHECKPOINT",
	OpShardFreeze:     "SHARD_FREEZE",
	OpShardPull:       "SHARD_PULL",
	OpShardCommit:     "SHARD_COMMIT",
	OpBatch:           "BATCH",
	OpInvalidate:      "INVALIDATE",
	OpExec:            "EXEC",
	OpSignal:          "SIGNAL",
	OpPing:            "PING",
	OpReplAppend:      "REPL_APPEND",
	OpReplSeal:        "REPL_SEAL",
}

// String returns the wire name of the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "OP_UNKNOWN"
}

// Message kinds used at the msg layer.
const (
	KindRequest  uint16 = 1
	KindResponse uint16 = 2
	KindCallback uint16 = 3
)
