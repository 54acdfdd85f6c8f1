package server

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/proto"
)

// batchAs sends subs as one stop-on-error batch from p and returns the
// sub-responses.
func (h *harness) batchAs(p peer, subs ...*proto.Request) []*proto.Response {
	h.t.Helper()
	for _, s := range subs {
		s.ClientID = p.id
	}
	outer := h.callAs(p, &proto.Request{Op: proto.OpBatch, Subs: subs, StopOnErr: true})
	resps, err := proto.UnmarshalBatchResponses(outer.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != fsapi.OK {
			h.t.Fatalf("%s sub-op %d: %v", subs[i].Op, i, r.Err)
		}
	}
	return resps
}

// storedNames returns the keys of the root shard's entries, sorted, and how
// many of the entries have a chain of trackers.
func (h *harness) storedNames() (ents []string, chains int) {
	sh, ok := h.srv.dirs.Get(proto.RootInode)
	if !ok {
		h.t.Fatal("the root has no shard")
	}
	sh.ents.Range(func(name string, ent dirEnt) bool {
		ents = append(ents, name)
		if ent.tracker < 0 {
			chains++
		}
		return true
	})
	slices.Sort(ents)
	return ents, chains
}

// TestLentNamesOutliveTheirEnvelope: a batch's sub-requests read their names
// in the envelope's Data (decodeBatch), which the server overwrites here the
// moment it releases the envelope, as the next decode into the recycled
// struct would. Every name the server keeps — an entry's key made by a create
// or a rename, a name logged and replayed after a crash — must read the
// same afterwards, entries with a chain of trackers included; a parked batch that
// a migration COMMIT resumes included.
func TestLentNamesOutliveTheirEnvelope(t *testing.T) {
	h := turnaroundHarness(t)
	h.srv.onRelease = func(r *proto.Request) {
		for i := range r.Data {
			r.Data[i] = '#'
		}
	}
	ps := h.peers(3)
	name := func(tag string, i int) string { return fmt.Sprintf("%s-%02d-0123456789abcdef", tag, i) }

	// Creates, each file then looked up by the two other clients: the second
	// tracker starts the entry's chain.
	want := map[string]bool{}
	inos := map[string]proto.InodeID{}
	for i := 0; i < 8; i++ {
		n := name("file", i)
		inos[n] = h.batchAs(ps[0], &proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode,
			Name: n, Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})[0].Ino
		want[n] = true
		for _, p := range ps[1:] {
			h.batchAs(p, &proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: n})
		}
	}
	// Same-server renames: three to new names, one over an existing entry.
	rename := func(from, to string) {
		h.batchAs(ps[0],
			&proto.Request{Op: proto.OpAddMap, Dir: proto.RootInode, Name: to, Target: inos[from], Ftype: fsapi.TypeRegular, Replace: true},
			&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: from})
		delete(want, from)
		want[to] = true
	}
	for i := 0; i < 3; i++ {
		rename(name("file", i), name("renamed", i))
	}
	rename(name("file", 3), name("file", 4))
	// An unlink, its inode chained.
	h.batchAs(ps[1],
		&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: name("file", 5), Ftype: fsapi.TypeRegular},
		&proto.Request{Op: proto.OpUnlinkInode, Target: proto.PrevInode})
	delete(want, name("file", 5))

	// A batch stamped with a migration's pending epoch parks whole until the
	// COMMIT, and is decoded again from its envelope when that resumes it.
	h.callAs(ps[0], &proto.Request{Op: proto.OpShardFreeze, Epoch: 2})
	before := h.parked()
	fut := h.sendBatch(
		&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name("parked", 0),
			Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular, Epoch: 2},
		&proto.Request{Op: proto.OpAddMap, Dir: proto.RootInode, Name: name("parked", 1),
			Target: inos[name("file", 6)], Ftype: fsapi.TypeRegular, Epoch: 2})
	h.awaitParked(before, 1)
	m := place.New(place.PolicyModulo, []int32{0}, 2)
	if resp := h.callAs(ps[0], &proto.Request{Op: proto.OpShardCommit,
		Data: (&proto.ShardMsg{MapBlob: m.Encode()}).Marshal()}); resp.Err != fsapi.OK {
		t.Fatalf("commit: %v", resp.Err)
	}
	if got := errnos(h.awaitBatch(fut)); !slices.Equal(got, []fsapi.Errno{fsapi.OK, fsapi.OK}) {
		t.Fatalf("the resumed batch answered %v", got)
	}
	want[name("parked", 0)], want[name("parked", 1)] = true, true
	for _, p := range ps[1:] {
		h.batchAs(p, &proto.Request{Op: proto.OpLookup, Dir: proto.RootInode, Name: name("parked", 1)})
	}

	var names []string
	for n := range want {
		names = append(names, n)
	}
	slices.Sort(names)
	h.callOK(&proto.Request{Op: proto.OpPing}) // the last batch's envelope is released
	ents, chains := h.storedNames()
	if !slices.Equal(ents, names) {
		t.Fatalf("the root stores\n%q\nwant\n%q", ents, names)
	}
	if chains == 0 {
		t.Fatal("no entry has a second tracker: the chains went untested")
	}

	h.srv.Crash(false)
	if _, err := h.srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := h.storedNames(); !slices.Equal(ents, names) {
		t.Fatalf("recovered\n%q\nwant\n%q", ents, names)
	}
}
