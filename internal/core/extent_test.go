package core

import (
	"bytes"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

// openReplyExtents sends OPEN for the inode st names straight to its
// server — the message a client's open of the file sends — and returns the
// block map the reply carries. A CLOSE follows, so the probe holds no
// descriptor once it returns.
func openReplyExtents(t *testing.T, sys *System, st fsapi.Stat) []proto.Extent {
	t.Helper()
	from, to := sys.network.NewEndpoint(0), sys.servers[st.Server].EndpointID()
	ino := proto.InodeID{Server: int32(st.Server), Local: st.Ino}
	call := func(req *proto.Request) *proto.Response {
		env, err := sys.network.RPC(from, to, proto.KindRequest, req.Marshal(), 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := proto.UnmarshalResponse(env.Payload)
		if err != nil || resp.Err != fsapi.OK {
			t.Fatalf("%v: %v, %v", req.Op, err, resp.Err)
		}
		return resp
	}
	exts := call(&proto.Request{Op: proto.OpOpenInode, Target: ino, Flags: fsapi.ORdOnly}).Extents
	call(&proto.Request{Op: proto.OpCloseInode, Target: ino})
	return exts
}

// TestSequentialFileIsOneExtent: a 1 MiB file written 4 KiB at a time by one
// process is one run of its server's partition, so the OPEN reply that hands
// its map to the next opener carries one extent — and the next file, written
// after the first is unlinked, is the same run.
func TestSequentialFileIsOneExtent(t *testing.T) {
	sys := newTestSystem(t, 2, 2)
	c := sys.NewClient(0)
	chunk := bytes.Repeat([]byte{0xA5}, 4096)
	const size = 1 << 20
	var first proto.Extent
	for round, path := range []string{"/big", "/again"} {
		fd, err := c.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < size; off += len(chunk) {
			if _, err := c.Write(fd, chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
		settled(t, c)
		st, err := c.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		exts := openReplyExtents(t, sys, st)
		if len(exts) != 1 || exts[0].Count != size/4096 {
			t.Fatalf("round %d: the OPEN reply for a %d-byte file carries %d extents (%v…), want one of %d blocks",
				round, size, len(exts), exts[:min(len(exts), 4)], size/4096)
		}
		// Both files live on the writer's server; the second is written
		// into the run the first one's unlink freed.
		if round == 0 {
			first = exts[0]
		} else if exts[0] != first {
			t.Fatalf("the file written after an unlink is run %v, the freed run was %v", exts[0], first)
		}
		if err := c.Unlink(path); err != nil {
			t.Fatal(err)
		}
	}
}
