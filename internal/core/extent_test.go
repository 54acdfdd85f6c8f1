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
		resp := &proto.Response{}
		err = proto.UnmarshalResponseInto(resp, env.Payload)
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

// TestFragmentedFileReadsAcrossRuns: two files grown in turn on one server
// take turns at its partition, so each is several runs. Writes and reads
// that straddle the runs' boundaries move the right bytes, read back by a
// client on another core, through DRAM.
func TestFragmentedFileReadsAcrossRuns(t *testing.T) {
	sys := newTestSystem(t, 2, 2)
	c := sys.NewClient(0)
	const bs, size = 4096, 16 * 4096
	paths := []string{"/a", "/b"}
	want := make([][]byte, len(paths))
	fds := make([]fsapi.FD, len(paths))
	for i, path := range paths {
		fd, err := c.Open(path, fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
		want[i] = make([]byte, size)
		for j := range want[i] {
			want[i][j] = byte(j*7 + j/251 + 100*i)
		}
	}
	pwrite := func(i int, off, n int) {
		t.Helper()
		if got, err := c.Pwrite(fds[i], want[i][off:off+n], int64(off)); err != nil || got != n {
			t.Fatalf("%s: pwrite of %d bytes at %d: %d, %v", paths[i], n, off, got, err)
		}
	}
	// Block by block in turn: each file's EXTENDs interleave with the
	// other's.
	for off := 0; off < size; off += bs {
		for i := range paths {
			pwrite(i, off, bs)
		}
	}
	// Rewrite across every block boundary, and one span over several runs.
	for i := range paths {
		for off := bs - 50; off+100 <= size; off += bs {
			copy(want[i][off:off+100], bytes.Repeat([]byte{byte(off / bs), byte(i)}, 50))
			pwrite(i, off, 100)
		}
		copy(want[i][3000:3000+5*bs], bytes.Repeat([]byte{0xC3, byte(i)}, 5*bs/2))
		pwrite(i, 3000, 5*bs)
		if err := c.Close(fds[i]); err != nil {
			t.Fatal(err)
		}
	}
	settled(t, c)
	reader := sys.NewClient(1)
	var server int
	for i, path := range paths {
		st, err := reader.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			server = st.Server
		} else if st.Server != server {
			t.Fatalf("%s is on server %d, %s on %d: the files must share a partition", path, st.Server, paths[0], server)
		}
		if exts := openReplyExtents(t, sys, st); len(exts) < 3 {
			t.Fatalf("%s: the OPEN reply carries %d runs (%v), want at least 3", path, len(exts), exts)
		}
		fd, err := reader.Open(path, fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		for off := 0; off < size; off += 5000 {
			n := min(5000, size-off)
			if m, err := reader.Pread(fd, got[off:off+n], int64(off)); err != nil || m != n {
				t.Fatalf("%s: pread of %d bytes at %d: %d, %v", path, n, off, m, err)
			}
		}
		if !bytes.Equal(got, want[i]) {
			at := 0
			for got[at] == want[i][at] {
				at++
			}
			t.Fatalf("%s: read back differs first at byte %d (block %d): %#x, want %#x", path, at, at/bs, got[at], want[i][at])
		}
		all := make([]byte, size+100)
		if m, err := reader.Read(fd, all); err != nil || m != size || !bytes.Equal(all[:m], want[i]) {
			t.Fatalf("%s: one read of the whole file: %d bytes, %v, equal %v", path, m, err, bytes.Equal(all[:m], want[i]))
		}
		if err := reader.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
}
