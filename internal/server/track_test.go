package server

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/sim"
)

// peer is one more client library, registered with the harness's server on
// an endpoint of its own.
type peer struct {
	id int32
	ep *msg.Endpoint
}

// peers registers n client libraries, ids 8, 9, … (the harness's own is 7).
func (h *harness) peers(n int) []peer {
	out := make([]peer, n)
	for i := range out {
		out[i] = peer{id: int32(8 + i), ep: h.net.NewEndpoint(1)}
		h.srv.cfg.Registry.Register(out[i].id, out[i].ep.ID)
	}
	return out
}

// callAs sends a request as p and waits for the response. Whatever the server
// called back while serving it is in the peers' callback queues on return.
func (h *harness) callAs(p peer, req *proto.Request) *proto.Response {
	h.t.Helper()
	req.ClientID = p.id
	env, err := h.net.RPC(p.ep, h.srv.EndpointID(), proto.KindRequest, req.Marshal(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := proto.UnmarshalResponse(env.Payload)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp
}

// callback is one invalidation a peer received.
type callback struct {
	name   string
	sentAt sim.Cycles
}

// drain empties p's callback queue.
func drain(t *testing.T, p peer) []callback {
	t.Helper()
	var out []callback
	for {
		env, ok := p.ep.Callbacks.TryPop()
		if !ok {
			return out
		}
		iv, err := proto.UnmarshalInvalidation(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, callback{name: iv.Name, sentAt: env.SentAt})
	}
}

// expectOne checks that each of ps got exactly one invalidation, of name, in
// the order given, and returns nothing else.
func expectOne(t *testing.T, name string, ps ...peer) {
	t.Helper()
	var last sim.Cycles
	for i, p := range ps {
		got := drain(t, p)
		if len(got) != 1 || got[0].name != name {
			t.Fatalf("client %d got %v, want one invalidation of %q", p.id, got, name)
		}
		if i > 0 && got[0].sentAt <= last {
			t.Fatalf("client %d was called back at %d, not after the client before it (%d)", p.id, got[0].sentAt, last)
		}
		last = got[0].sentAt
	}
}

// expectNone checks that none of ps got an invalidation.
func expectNone(t *testing.T, ps ...peer) {
	t.Helper()
	for _, p := range ps {
		if got := drain(t, p); len(got) != 0 {
			t.Fatalf("client %d got %v, want no invalidation", p.id, got)
		}
	}
}

// TestInvalidationFanOutToSeveralTrackers: an entry cached by several client
// libraries — the first tracked in the entry, the rest beside it — calls
// each back once when it changes, in the order they looked it up, and never
// the client that changed it (§3.6.1).
func TestInvalidationFanOutToSeveralTrackers(t *testing.T) {
	addMap := func(name string, local uint64, replace bool) *proto.Request {
		return &proto.Request{Op: proto.OpAddMap, Dir: proto.RootInode, Name: name,
			Target: proto.InodeID{Server: 0, Local: local}, Ftype: fsapi.TypeRegular, Replace: replace}
	}
	rmMap := func(name string) *proto.Request {
		return &proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: name, Ftype: fsapi.TypeRegular}
	}

	t.Run("removal", func(t *testing.T) {
		h := newHarness(t)
		ps := h.peers(4)
		a, b, c, d := ps[0], ps[1], ps[2], ps[3]
		// The entry's creator is its first tracker, the lookups the rest.
		creator := peer{id: 7, ep: h.ep}
		h.callOK(addMap("watched", 50, false))
		for _, p := range ps {
			if resp := h.callAs(p, lookup("watched")); resp.Err != fsapi.OK {
				t.Fatalf("lookup by %d: %v", p.id, resp.Err)
			}
		}
		before := h.srv.Stats().Invalidations
		if resp := h.callAs(b, rmMap("watched")); resp.Err != fsapi.OK {
			t.Fatal(resp.Err)
		}
		expectOne(t, "watched", creator, a, c, d)
		expectNone(t, b)
		if n := h.srv.Stats().Invalidations - before; n != 4 {
			t.Fatalf("server counted %d invalidations, want 4", n)
		}
	})

	t.Run("replace", func(t *testing.T) {
		h := newHarness(t)
		ps := h.peers(3)
		a, b, c := ps[0], ps[1], ps[2]
		creator := peer{id: 7, ep: h.ep}
		h.callOK(addMap("swapped", 50, false))
		for _, p := range ps {
			h.callAs(p, lookup("swapped"))
		}
		if resp := h.callAs(c, addMap("swapped", 51, true)); resp.Err != fsapi.OK || resp.N != 1 {
			t.Fatalf("replacing ADD_MAP: %v, replaced %d", resp.Err, resp.N)
		}
		expectOne(t, "swapped", creator, a, b)
		expectNone(t, c)
		// The replacer is tracked, and only it: a removal by a calls back c.
		h.callAs(a, rmMap("swapped"))
		expectOne(t, "swapped", c)
		expectNone(t, creator, a, b)
	})

	t.Run("repeated lookups", func(t *testing.T) {
		h := newHarness(t)
		ps := h.peers(4)
		a, b, c, d := ps[0], ps[1], ps[2], ps[3]
		creator := peer{id: 7, ep: h.ep}
		h.callOK(addMap("popular", 50, false))
		for _, p := range []peer{a, b, creator, a, c, b, c, a, creator} {
			h.callAs(p, lookup("popular"))
		}
		h.callAs(d, rmMap("popular"))
		expectOne(t, "popular", creator, a, b, c)
	})

	t.Run("lookup after an invalidation", func(t *testing.T) {
		h := newHarness(t)
		ps := h.peers(3)
		a, b, c := ps[0], ps[1], ps[2]
		for round := 0; round < 3; round++ {
			h.callAs(c, addMap("again", uint64(50+round), false))
			h.callAs(b, lookup("again"))
			h.callAs(a, lookup("again"))
			h.callAs(c, rmMap("again"))
			expectOne(t, "again", b, a)
			expectNone(t, c)
		}
		// Nothing tracked is left: an entry of the same name starts over.
		h.callAs(c, addMap("again", 60, false))
		h.callAs(a, rmMap("again"))
		expectOne(t, "again", c)
		expectNone(t, a, b)
	})

	t.Run("migration commit", func(t *testing.T) {
		h := turnaroundHarness(t)
		ps := h.peers(3)
		dir := proto.InodeID{Server: 1, Local: 9} // another server's directory: distributed
		var ents []proto.MigEntry
		for i := 0; i < 16; i++ {
			ents = append(ents, proto.MigEntry{Dir: dir, Name: fmt.Sprintf("e%02d", i),
				Target: proto.InodeID{Server: 1, Local: uint64(100 + i)}, Ftype: fsapi.TypeRegular})
		}
		commit := func(members []int32, epoch uint64, entries []proto.MigEntry) *place.Map {
			m := place.New(place.PolicyModulo, members, epoch)
			req := &proto.Request{Op: proto.OpShardCommit, Data: (&proto.ShardMsg{MapBlob: m.Encode(), Entries: entries}).Marshal()}
			if resp := h.callAs(ps[0], req); resp.Err != fsapi.OK {
				t.Fatalf("commit at epoch %d: %v", epoch, resp.Err)
			}
			return m
		}

		commit([]int32{0}, 2, ents)
		if n := h.srv.Stats().MigInEntries; n != uint64(len(ents)) {
			t.Fatalf("first commit installed %d entries, want %d", n, len(ents))
		}
		for _, e := range ents {
			for _, p := range ps {
				if resp := h.callAs(p, &proto.Request{Op: proto.OpLookup, Dir: dir, Name: e.Name}); resp.Err != fsapi.OK {
					t.Fatalf("lookup of %s by %d: %v", e.Name, p.id, resp.Err)
				}
			}
		}

		// Sent again over tracked entries, the commit installs and logs nothing.
		records := h.srv.WalStats().Records
		commit([]int32{0}, 2, ents)
		if n := h.srv.Stats().MigInEntries; n != uint64(len(ents)) {
			t.Fatalf("re-sent commit installed %d entries more, want 0", n-uint64(len(ents)))
		}
		if n := h.srv.WalStats().Records; n != records {
			t.Fatalf("re-sent commit logged %d records, want 0", n-records)
		}
		expectNone(t, ps...)

		// The entries kept their trackers through it.
		h.callAs(ps[1], &proto.Request{Op: proto.OpRmMap, Dir: dir, Name: ents[0].Name})
		expectOne(t, ents[0].Name, ps[0], ps[2])
		expectNone(t, ps[1])

		// Entries that leave call back every client that had them cached.
		m := commit([]int32{0, 1}, 3, nil)
		moved := map[string]bool{}
		for _, e := range ents[1:] {
			if m.Route(proto.Hash(dir, e.Name)) != 0 {
				moved[e.Name] = true
			}
		}
		if len(moved) == 0 || len(moved) == len(ents)-1 {
			t.Fatalf("%d of %d entries moved; the test wants some of each", len(moved), len(ents)-1)
		}
		for _, p := range ps {
			got := map[string]int{}
			for _, cb := range drain(t, p) {
				got[cb.name]++
			}
			if len(got) != len(moved) {
				t.Fatalf("client %d was called back about %v, want the %d entries that moved", p.id, got, len(moved))
			}
			for name, n := range got {
				if !moved[name] || n != 1 {
					t.Fatalf("client %d was called back %d times about %s (moved: %v)", p.id, n, name, moved[name])
				}
			}
		}
	})
}

// TestEntryFootprint gates what a file costs the server that stores it and
// its entry: the inode, held in place in a page of the inode table, the
// entry with its slot in the directory's shard, and the name. A creator is
// tracked in the entry itself, not in a table and a set of its own.
func TestEntryFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if n := unsafe.Sizeof(inode{}); n != 80 {
			t.Errorf("inode is %d bytes, want 80", n)
		}
		if n := unsafe.Sizeof(dirEnt{}); n != 24 {
			t.Errorf("dirEnt is %d bytes, want 24", n)
		}
	}

	h := newHarness(t)
	const files, maxPerFile = 16384, 240
	req := &proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < files; i++ {
		req.Name = fmt.Sprintf("file-%06d-0123456789ab", i) // 24 bytes
		if resp := h.call(req); resp.Err != fsapi.OK {
			t.Fatalf("create %s: %v", req.Name, resp.Err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFile := (int64(after.HeapInuse) - int64(before.HeapInuse)) / files
	if perFile > maxPerFile {
		t.Fatalf("%d bytes of live heap per file, want at most %d", perFile, maxPerFile)
	}
	t.Logf("%d bytes of live heap per file", perFile)
}

// TestRmdirReturnsItsSlab fills a directory with 4096 names, empties it and
// removes it: emptying compacts the shard's slab, and the rmdir brings the
// live heap back to within one page of where it started — the shard's table
// and its slab went with it, and nothing else holds on to a chunk. The
// first round warms the server's free lists and caches; the second is
// measured. Live heap is HeapAlloc after a collection, the bytes of
// reachable objects. HeapInuse counts whole spans, so any one survivor left
// in a span the round's garbage filled (a runtime or harness object landing
// beside the test's formatted names) reads as a page held; it moved the
// count by up to 32 KiB between runs of an unchanged tree.
func TestRmdirReturnsItsSlab(t *testing.T) {
	const names, page = 4096, 8192
	h := newHarness(t)
	round := func(dirName string) (full uint64) {
		dir := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: dirName,
			Mode: fsapi.Mode755, Ftype: fsapi.TypeDir}).Ino
		add := &proto.Request{Op: proto.OpAddMap, Dir: dir, Ftype: fsapi.TypeRegular}
		for i := 0; i < names; i++ {
			add.Name = fmt.Sprintf("file-%06d-0123456789ab", i) // 24 bytes
			add.Target = proto.InodeID{Server: 1, Local: uint64(2 + i)}
			h.callOK(add)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		full = ms.HeapAlloc
		rm := &proto.Request{Op: proto.OpRmMap, Dir: dir}
		for i := 0; i < names; i++ {
			rm.Name = fmt.Sprintf("file-%06d-0123456789ab", i)
			h.callOK(rm)
		}
		// Emptying compacted the slab as it went: what is left is less
		// than a chunk.
		sh, ok := h.srv.dirs.Get(dir)
		if !ok {
			t.Fatal("the directory has no shard")
		}
		if held := sh.names.Held(); held > 4096 {
			t.Fatalf("the emptied directory's shard holds a slab of %d bytes", held)
		}
		h.callOK(&proto.Request{Op: proto.OpRmdirLock, Target: dir})
		h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir, Target: dir})
		h.callOK(&proto.Request{Op: proto.OpRmdirCommit, Dir: dir, Target: dir})
		h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: dirName, Ftype: fsapi.TypeDir})
		h.callOK(&proto.Request{Op: proto.OpRmdirFinish, Target: dir})
		return full
	}
	round("warm")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	full := round("measured")
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := full - before.HeapAlloc; grew < names*24 {
		t.Fatalf("the full directory took %d bytes of live heap, less than its names' %d", grew, names*24)
	}
	if left := int64(after.HeapAlloc) - int64(before.HeapAlloc); left > page {
		t.Fatalf("%d bytes of live heap left after the rmdir, want at most %d", left, page)
	} else {
		t.Logf("%d bytes of live heap left after the rmdir, %d while full", left, full-before.HeapAlloc)
	}
}

// list returns the clients of tracker value t in fan-out order, leaving the
// pool as it is.
func (p *trackPool) list(t int32) []int32 {
	var out []int32
	if t > 0 {
		return append(out, t-1)
	}
	for r := -t - 1; t < 0; r = p.runs[r].next - 1 {
		for _, c := range p.runs[r].ids {
			if c != 0 {
				out = append(out, c-1)
			}
		}
		if p.runs[r].next == 0 {
			break
		}
	}
	return out
}
