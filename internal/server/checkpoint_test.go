package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/wal"
)

// FuzzUnmarshalCheckpoint decodes checkpoint bodies — the CRC is fixed up,
// so the fuzzer reaches the decoder rather than the checksum — and loads
// each one that decodes into a fresh server. A decoded count never sizes an
// allocation, nor does a decoded inode number: the inode table holds a page
// per number at most, however far apart the numbers lie. After the load the
// table holds exactly the snapshot's inodes, the last of a repeated number
// winning, and walks them in ascending order.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	dir := proto.InodeID{Server: 0, Local: 2}
	for _, c := range []*wal.Checkpoint{
		{},
		{
			LSN: 9, NextIno: 5,
			Inodes: []wal.InodeSnap{
				{Local: 2, Ftype: fsapi.TypeDir, Mode: fsapi.Mode755, Nlink: 1, Dist: true},
				{Local: 3, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Size: 700, Nlink: 1,
					Blocks: []uint64{4, 5}, Data: [][]byte{[]byte("hello"), nil}},
				{Local: 4, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 2},
			},
			Dirs: []wal.DirSnap{
				{Dir: proto.RootInode, Ents: []wal.DirEntSnap{{Name: "d", Target: dir, Ftype: fsapi.TypeDir, Dist: true}}},
				{Dir: dir, Ents: []wal.DirEntSnap{
					{Name: "a", Target: proto.InodeID{Server: 0, Local: 3}, Ftype: fsapi.TypeRegular},
					{Name: "b", Target: proto.InodeID{Server: 1, Local: 4}, Ftype: fsapi.TypeRegular},
				}},
			},
			DeadDirs: []proto.InodeID{{Server: 0, Local: 7}},
		},
		{ // numbers at the top of the space, one repeated
			NextIno: 1 << 63,
			Inodes: []wal.InodeSnap{
				{Local: 1 << 63, Ftype: fsapi.TypeRegular, Nlink: 1},
				{Local: ^uint64(0), Ftype: fsapi.TypeDir, Nlink: 1},
				{Local: 1 << 63, Ftype: fsapi.TypeRegular, Size: 3, Nlink: 1},
			},
		},
	} {
		f.Add(c.Marshal()[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b := make([]byte, 4+len(body))
		binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(body))
		copy(b[4:], body)
		c, err := wal.UnmarshalCheckpoint(b)
		if err != nil {
			return
		}
		if c.Epoch > 0 && len(c.PlaceMap) > 0 {
			if _, err := place.Decode(c.PlaceMap); err != nil {
				return // a map that passed the CRC but not the decoder: the server panics by design
			}
		}
		s := fuzzServer()
		s.loadCheckpoint(c)
		s.reclaimBlocks()

		last := make(map[uint64]*wal.InodeSnap)
		for i := range c.Inodes {
			last[c.Inodes[i].Local] = &c.Inodes[i]
		}
		want := len(last)
		if _, ok := last[proto.RootInode.Local]; !ok {
			want++ // the root directory the server boots with
		}
		if s.inodes.Len() != want {
			t.Fatalf("%d inodes after loading %d distinct numbers (and the root), want %d", s.inodes.Len(), len(last), want)
		}
		n, prev := 0, uint64(0)
		s.inodes.Range(func(local uint64, ino *inode) bool {
			if n > 0 && local <= prev {
				t.Fatalf("inode %d walked after %d", local, prev)
			}
			n, prev = n+1, local
			if ino.local != local {
				t.Fatalf("inode %d is stored under %d", ino.local, local)
			}
			snap, ok := last[local]
			if !ok {
				return true
			}
			if ino.ftype != snap.Ftype || ino.size != snap.Size || ino.nlink != snap.Nlink || len(ino.blocks) != len(snap.Blocks) {
				t.Fatalf("inode %d loaded as %+v from %+v", local, *ino, *snap)
			}
			return true
		})
		if n != want {
			t.Fatalf("Range visited %d inodes, want %d", n, want)
		}
		if s.nextIno < c.NextIno {
			t.Fatalf("next inode number %d below the checkpoint's %d", s.nextIno, c.NextIno)
		}
	})
}

// fuzzServer builds a stopped server 0 (the root's home) over a small
// partition, the state a recovery loads a checkpoint into.
func fuzzServer() *Server {
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	dram := ncc.NewDRAM(64, 512)
	return New(Config{
		ID:         0,
		Core:       0,
		NumServers: 1,
		Machine:    machine,
		Network:    msg.NewNetwork(msg.WrapMachine(machine)),
		DRAM:       dram,
		Partition:  ncc.PartitionDRAM(dram, 1)[0],
		Registry:   NewClientRegistry(),
		CoLocated:  true,
	})
}

// TestPrimaryAndReplicaAgreeOnInodeOrder: a sync-replicated primary's
// checkpoint and its follower's snapshot — what a promotion installs — list
// the same inodes in the same, ascending, order, over a history that
// unlinked every third file it made.
func TestPrimaryAndReplicaAgreeOnInodeOrder(t *testing.T) {
	machine := sim.NewMachine(sim.TopologyForCores(3), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(256, 512)
	parts := ncc.PartitionDRAM(dram, 2)
	registry := NewClientRegistry()
	log, err := wal.Open(wal.Config{Store: wal.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	var srvs [2]*Server
	for id := range srvs {
		cfg := Config{ID: id, Core: id, NumServers: 2, Machine: machine, Network: network, DRAM: dram,
			Partition: parts[id], Registry: registry, CoLocated: true, Repl: ReplOptions{Mode: repl.Sync}}
		if id == 0 {
			cfg.Log = log
		}
		srvs[id] = New(cfg)
	}
	primary, follower := srvs[0], srvs[1]
	fep, _ := follower.ReplEndpointID()
	primary.SetReplTarget(&ReplTarget{ID: 1, EP: fep})
	for _, s := range srvs {
		s.Start()
	}
	h := &harness{t: t, srv: primary, net: network, ep: network.NewEndpoint(2), machine: machine}
	registry.Register(7, h.ep.ID)
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("f%03d", i)
		created := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name,
			Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
		if i%3 == 0 {
			h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: name, Ftype: fsapi.TypeRegular})
			h.callOK(&proto.Request{Op: proto.OpUnlinkInode, Target: created.Ino})
		}
	}
	for _, s := range srvs {
		s.Stop()
	}

	locals := func(c *wal.Checkpoint) []uint64 {
		out := make([]uint64, len(c.Inodes))
		for i, in := range c.Inodes {
			out[i] = in.Local
		}
		return out
	}
	f := follower.replicas[0]
	if f == nil {
		t.Fatal("the follower holds no replica of server 0")
	}
	got, want := locals(f.Snapshot()), locals(primary.buildCheckpoint())
	if len(want) != 201 || !slices.IsSorted(want) {
		t.Fatalf("the primary's checkpoint lists %d inodes (sorted: %v), want the root and 200 files in ascending order",
			len(want), slices.IsSorted(want))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the replica lists its inodes as %v,\nthe primary as %v", got, want)
	}
}
