// Package proto defines the RPC protocol spoken between Hare client
// libraries, file servers, and scheduling servers.
//
// Messages are fixed-shape request/response structs (in the style of
// message-passing operating systems) serialized with a compact binary wire
// format. A single operation may touch several servers; the client library
// is the coordinator (Hare deliberately avoids server-to-server RPCs).
package proto

import "fmt"

// InodeID names an inode in the distributed file system. Inodes are named by
// the server that stores them plus a per-server inode number, which gives
// system-wide uniqueness and scalable allocation (paper §3.6.4).
type InodeID struct {
	Server int32
	Local  uint64
}

// NilInode is the zero InodeID, used as "no inode".
var NilInode = InodeID{Server: -1, Local: 0}

// PrevInode, as the Target of a batched sub-request, names the inode the
// previous sub-response carries: a dependent chain such as LOOKUP → STAT
// travels as one message although only the server knows the inode the
// first half finds (DESIGN.md §7). It is meaningful nowhere else; like
// NilInode it is an ordinary value on the wire.
var PrevInode = InodeID{Server: -2, Local: 0}

// IsNil reports whether the id is the sentinel "no inode" value.
func (id InodeID) IsNil() bool { return id.Server < 0 }

// String formats the inode id as server:local.
func (id InodeID) String() string {
	if id.IsNil() {
		return "<nil-inode>"
	}
	return fmt.Sprintf("%d:%d", id.Server, id.Local)
}

// Key packs the inode id into a single comparable uint64-pair-free value
// suitable for map keys in exported statistics. The inode id itself is
// already comparable; Key exists for compact external reporting.
func (id InodeID) Key() uint64 {
	return uint64(uint32(id.Server))<<48 | (id.Local & 0xffffffffffff)
}

// RootInode is the designated root directory inode: stored on server 0 with
// local number 1 (paper: "A designated server stores the root directory
// entry").
var RootInode = InodeID{Server: 0, Local: 1}

// FdID names a server-side shared file descriptor (the offset has migrated
// to the server because several processes share the descriptor).
type FdID uint64

// NilFd is the sentinel "no server-side descriptor" value.
const NilFd FdID = 0
