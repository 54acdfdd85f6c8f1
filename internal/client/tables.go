package client

import (
	"repro/internal/fsapi"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/table"
)

// Hot-path data structures (DESIGN.md §13).
//
// The directory-lookup cache and the per-inode version cache use the
// open-addressing tables from internal/table: flat storage for the
// million-entry namespaces the scale sweeps resolve through, and
// deterministic iteration for the one full scan the client performs
// (uncacheDir).

func hashClientIno(id proto.InodeID) uint64 {
	return table.HashU64(id.Local ^ uint64(uint32(id.Server))<<40)
}

func hashDcacheKey(k dcacheKey) uint64 {
	return table.HashU64(hashClientIno(k.dir) ^ table.HashString(k.name))
}

func newDcacheTable() *table.Map[dcacheKey, dcacheEnt] {
	return table.New[dcacheKey, dcacheEnt](hashDcacheKey, 256)
}

func newVcacheTable() *table.Map[proto.InodeID, uint64] {
	return table.New[proto.InodeID, uint64](hashClientIno, 64)
}

// respArenaCap bounds the response structs a client keeps between calls:
// enough for a directory broadcast to 64 servers. A call that needs more
// gets the rest from the allocator and leaves them to the collector. What
// each kept struct may pin is bounded by proto.Response.Recycle.
const respArenaCap = 64

// respArena is the one place a client's decoded responses come from
// (DESIGN.md §13). Every response handed out while a public call runs
// belongs to that call: nothing is returned one by one, the call takes a
// mark when it starts and hands everything drawn since back when it returns,
// so a response must not be read after the call that received it. Marks nest
// as public calls do (CloseAll → Close).
type respArena struct {
	items []*proto.Response
	used  int // items[:used] belong to the calls in progress
}

// newResp returns a response struct for the call in progress. Decoding into
// it resets every field.
func (c *Client) newResp() *proto.Response {
	a := &c.resps
	if a.used < len(a.items) {
		a.used++
		return a.items[a.used-1]
	}
	r := new(proto.Response)
	if len(a.items) < respArenaCap {
		a.items = append(a.items, r)
		a.used++
	}
	return r
}

// errResp returns a response of the call in progress that carries only an
// error.
func (c *Client) errResp(errno fsapi.Errno) *proto.Response {
	r := c.newResp()
	*r = proto.Response{Err: errno}
	return r
}

// respMark is taken when a public call starts; releaseResps(mark) when it
// returns recycles every response drawn since.
func (c *Client) respMark() int { return c.resps.used }

func (c *Client) releaseResps(mark int) {
	a := &c.resps
	for _, r := range a.items[mark:a.used] {
		r.Recycle()
	}
	a.used = mark
}

// ofFreeCap bounds the free list of open-file descriptions kept for the next
// open, ofKeepRuns the extents of block map and of dirty set each keeps room
// for.
const (
	ofFreeCap  = 16
	ofKeepRuns = 64
)

// newOpenFile returns a zeroed description, recycled when one is free.
func (c *Client) newOpenFile() *openFile {
	if n := len(c.ofFree); n > 0 {
		of := c.ofFree[n-1]
		c.ofFree[n-1] = nil
		c.ofFree = c.ofFree[:n-1]
		return of
	}
	return new(openFile)
}

// freeOpenFile recycles a description whose last descriptor is closed. A
// file with a large or fragmented map keeps none of it.
func (c *Client) freeOpenFile(of *openFile) {
	if len(c.ofFree) >= ofFreeCap {
		return
	}
	blocks, dirty := of.blocks, of.dirty[:0]
	if blocks.Cap() > ofKeepRuns {
		blocks = ncc.ExtentList{}
	}
	if cap(dirty) > ofKeepRuns {
		dirty = nil
	}
	blocks.Reset()
	*of = openFile{blocks: blocks, dirty: dirty}
	c.ofFree = append(c.ofFree, of)
}

// marshalReq encodes a request into a buffer drawn from the endpoint's
// free-list cache. Ownership of the buffer passes to the receiver with the
// send (msg/pool.go).
func (c *Client) marshalReq(req *proto.Request) []byte {
	return req.AppendTo(c.ep.GetBuf(req.SizeHint()))
}

// memberServers returns the current placement members as server indices (the
// fan-out set for distributed-directory broadcasts). The conversion is
// cached per routing snapshot, so steady-state broadcasts do not re-walk or
// re-allocate the member list.
func (c *Client) memberServers() []int {
	rt := c.routing
	if c.memberSrvsOf == rt {
		return c.memberSrvs
	}
	members := rt.Map.MembersRef()
	out := make([]int, len(members))
	for i, id := range members {
		out[i] = int(id)
	}
	c.memberSrvs, c.memberSrvsOf = out, rt
	return out
}
