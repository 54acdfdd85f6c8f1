package server

import (
	"encoding/binary"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/proto"
)

// badMaps are encodings no deployment builds, each a well-formed
// place.Map.Encode otherwise: a vnode count that would size a million-point
// ring from 21 bytes, a map that routes nowhere, a policy no map has, members
// out of order, and bytes after the last member.
func badMaps() map[string][]byte {
	ring := func(members ...int32) []byte { return place.New(place.PolicyRing, members, 3).Encode() }
	vnodes := ring(0)
	binary.LittleEndian.PutUint32(vnodes[9:], 1<<20)
	policy := ring(0)
	policy[8] = uint8(place.PolicyRing) + 1
	unsorted := ring(0, 1)
	copy(unsorted[17:], []byte{1, 0, 0, 0, 0, 0, 0, 0})
	return map[string][]byte{
		"2^20 vnodes":       vnodes,
		"no members":        place.New(place.PolicyModulo, nil, 3).Encode(),
		"unknown policy":    policy,
		"unsorted members":  unsorted,
		"trailing byte":     append(ring(0), 0),
		"duplicate members": append(ring(0)[:13], 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	}
}

// TestShardOpsRefuseBadMaps: SHARD_PULL and SHARD_COMMIT carry a placement
// map in from the wire. One no deployment builds is answered EINVAL, and the
// server — which holds a distributed entry, so it would route it — goes on
// serving with that entry where it was. An empty map used to reach Route and
// panic the server; a huge vnode count used to size the ring.
func TestShardOpsRefuseBadMaps(t *testing.T) {
	h := turnaroundHarness(t)
	dir := proto.InodeID{Server: 1, Local: 9} // another server's directory: distributed
	ent := proto.MigEntry{Dir: dir, Name: "kept", Target: proto.InodeID{Server: 1, Local: 100}, Ftype: fsapi.TypeRegular}
	good := place.New(place.PolicyModulo, []int32{0}, 2).Encode()
	h.callOK(&proto.Request{Op: proto.OpShardCommit, Data: (&proto.ShardMsg{MapBlob: good, Entries: []proto.MigEntry{ent}}).Marshal()})

	for name, blob := range badMaps() {
		if m, err := place.Decode(blob); err == nil {
			t.Errorf("%s: decoded as a map of %d members", name, m.NumMembers())
		}
		for _, op := range []proto.Op{proto.OpShardPull, proto.OpShardCommit} {
			resp := h.call(&proto.Request{Op: op, Data: (&proto.ShardMsg{MapBlob: blob}).Marshal()})
			if resp.Err != fsapi.EINVAL {
				t.Errorf("%s: %v answered %v, want EINVAL", name, op, resp.Err)
			}
		}
	}
	if resp := h.call(&proto.Request{Op: proto.OpLookup, Dir: dir, Name: ent.Name, Epoch: 2}); resp.Err != fsapi.OK || resp.Ino != ent.Target {
		t.Fatalf("the distributed entry after the refused maps: %v (%v)", resp.Ino, resp.Err)
	}
}
