package server

import (
	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/table"
)

// Hot-path data structures (DESIGN.md §13).
//
// The per-server tables — inodes, directory shards, dead-directory
// tombstones, shared descriptors, invalidation tracking — use the open-
// addressing tables from internal/table instead of built-in maps. Beyond the
// flat layout, this makes every server-side iteration (checkpoint encoding,
// migration scans, invalidation fan-outs) deterministic: slot order is a
// pure function of the operation history, where Go map order is randomized
// per run. The inode table is sharded so a million-file namespace rehashes
// in bounded slices.

// hashIno mixes an InodeID into a well-distributed 64-bit hash.
func hashIno(id proto.InodeID) uint64 {
	return table.HashU64(id.Local ^ uint64(uint32(id.Server))<<40)
}

// hashDirent mixes a tracking key (directory inode + entry name).
func hashDirent(k direntKey) uint64 {
	return table.HashU64(hashIno(k.dir) ^ table.HashString(k.name))
}

// hashFd hashes a shared-descriptor id.
func hashFd(f proto.FdID) uint64 { return table.HashU64(uint64(f)) }

func newInodeTable() *table.Sharded[uint64, *inode] {
	return table.NewSharded[uint64, *inode](table.HashU64, 1024)
}

func newDirTable() *table.Map[proto.InodeID, *dirShard] {
	return table.New[proto.InodeID, *dirShard](hashIno, 64)
}

func newDeadDirTable() *table.Map[proto.InodeID, struct{}] {
	return table.New[proto.InodeID, struct{}](hashIno, 0)
}

func newFdTable() *table.Map[proto.FdID, *sharedFd] {
	return table.New[proto.FdID, *sharedFd](hashFd, 16)
}

func newTrackTable() *table.Map[direntKey, []int32] {
	return table.New[direntKey, []int32](hashDirent, 256)
}

// deadDir reports whether dir carries a dead-directory tombstone.
func (s *Server) deadDir(dir proto.InodeID) bool {
	_, ok := s.deadDirs.Get(dir)
	return ok
}

// reqFreeCap bounds the request free list (one entry per concurrently parked
// request plus the in-service one is the steady-state need).
const reqFreeCap = 64

// getReq returns a request struct from the server's free list. The decode
// into it resets every field.
func (s *Server) getReq() *proto.Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree[n-1] = nil
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return new(proto.Request)
}

// putReq releases a request the loop has fully answered. Requests retained
// by park sites are released at their unpark-reply site instead. Recycle
// bounds what the struct keeps, so the list never pins a write payload.
func (s *Server) putReq(r *proto.Request) {
	if r == nil || len(s.reqFree) >= reqFreeCap {
		return
	}
	r.Recycle()
	s.reqFree = append(s.reqFree, r)
}

// resp copies v into the server's scratch response and returns it. The
// request loop serves one request at a time and replyAt marshals the
// response before the next dispatch runs, so a single scratch struct backs
// every hot-path response without allocating. The one place several
// responses are alive at once — batch sub-responses — copies the scratch
// into the server's recycled sub-response structs (dispatchBatch).
func (s *Server) resp(v proto.Response) *proto.Response {
	s.scratch = v
	return &s.scratch
}

// errResp is resp for error-only responses.
func (s *Server) errResp(errno fsapi.Errno) *proto.Response {
	s.scratch = proto.Response{Err: errno}
	return &s.scratch
}
