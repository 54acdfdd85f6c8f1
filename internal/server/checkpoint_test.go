package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
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
			if ino.ftype != snap.Ftype || ino.size != snap.Size || ino.nlink != snap.Nlink || ino.blocks.Len() != len(snap.Blocks) {
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
		CoLocated:  true,
	})
}

// TestPrimaryAndReplicaAgreeOnInodeOrder: a sync-replicated primary's live
// checkpoint, its follower's snapshot — what a promotion installs — and the
// primary's checkpoint after a memory-domain loss and a replay hold the same
// durable state: inodes in the same, ascending, order with the same mode,
// size, link count and block list, the same directory entries and dead
// directories, and the same block contents. The history creates files,
// writes through the server, truncates, unlinks every third file (so freed
// blocks are reused) and removes every other directory it made.
func TestPrimaryAndReplicaAgreeOnInodeOrder(t *testing.T) {
	srvs, h := newSyncPair(t, ncc.NewDRAM(512, 512))
	primary, follower := srvs[0], srvs[1]
	fep, _ := follower.ReplEndpointID()
	primary.SetReplTarget(&ReplTarget{ID: 1, EP: fep})
	files := 0
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("f%03d", i)
		created := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name,
			Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
		if i%5 == 1 {
			// Bytes 100..800: the tail of one block and the head of the next.
			h.callOK(&proto.Request{Op: proto.OpWriteAt, Target: created.Ino, Offset: 100,
				Data: bytes.Repeat([]byte{byte('a' + i%26)}, 700)})
		}
		if i%7 == 2 {
			// What a client writing the buffer cache directly sends: the
			// blocks first, the size after its writes.
			h.callOK(&proto.Request{Op: proto.OpExtend, Target: created.Ino, Size: 600})
			h.callOK(&proto.Request{Op: proto.OpSetSize, Target: created.Ino, Size: 600})
		}
		if i%10 == 1 {
			// Back to one block, its tail zeroed.
			h.callOK(&proto.Request{Op: proto.OpTruncate, Target: created.Ino, Size: 300})
		}
		if i%3 == 0 {
			h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: name, Ftype: fsapi.TypeRegular})
			h.callOK(&proto.Request{Op: proto.OpUnlinkInode, Target: created.Ino})
		} else {
			files++
		}
	}
	dirs := 0
	for d := 0; d < 6; d++ {
		name := fmt.Sprintf("d%d", d)
		dir := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: name,
			Mode: fsapi.Mode755, Ftype: fsapi.TypeDir})
		h.callOK(&proto.Request{Op: proto.OpAddMap, Dir: dir.Ino, Name: "x",
			Target: proto.InodeID{Server: 1, Local: uint64(40 + d)}, Ftype: fsapi.TypeRegular})
		if d%2 == 1 {
			dirs++
			continue
		}
		h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: dir.Ino, Name: "x"})
		h.callOK(&proto.Request{Op: proto.OpRmdirLock, Target: dir.Ino})
		h.callOK(&proto.Request{Op: proto.OpRmdirPrepare, Dir: dir.Ino, Target: dir.Ino})
		h.callOK(&proto.Request{Op: proto.OpRmdirCommit, Dir: dir.Ino, Target: dir.Ino})
		h.callOK(&proto.Request{Op: proto.OpRmMap, Dir: proto.RootInode, Name: name, Ftype: fsapi.TypeDir})
		h.callOK(&proto.Request{Op: proto.OpRmdirFinish, Target: dir.Ino})
	}
	for _, s := range srvs {
		s.Stop()
	}

	f := follower.replicas[0]
	if f == nil {
		t.Fatal("the follower holds no replica of server 0")
	}
	live, replica := primary.buildCheckpoint(), f.Snapshot()
	primary.crashed.Store(true) // stopped, so the body runs here
	primary.die(true)
	if _, _, err := primary.Recover(0); err != nil {
		t.Fatal(err)
	}
	primary.Stop()
	replayed := primary.buildCheckpoint()

	locals := func(c *wal.Checkpoint) []uint64 {
		out := make([]uint64, len(c.Inodes))
		for i, in := range c.Inodes {
			out[i] = in.Local
		}
		return out
	}
	want := locals(live)
	if len(want) != 1+files+dirs || !slices.IsSorted(want) {
		t.Fatalf("the primary's checkpoint lists %d inodes (sorted: %v), want the root, %d files and %d directories in ascending order",
			len(want), slices.IsSorted(want), files, dirs)
	}
	if len(live.DeadDirs) != 3 {
		t.Fatalf("the primary's checkpoint lists %d dead directories, want 3", len(live.DeadDirs))
	}
	for _, side := range []struct {
		name string
		c    *wal.Checkpoint
	}{{"the replica", replica}, {"the replayed primary", replayed}} {
		if got := locals(side.c); !slices.Equal(got, want) {
			t.Fatalf("%s lists its inodes as %v,\nthe primary as %v", side.name, got, want)
		}
		if diff := durableDiff(side.c, live); diff != "" {
			t.Fatalf("%s and the live primary differ: %s", side.name, diff)
		}
	}
}

// durableDiff describes the first difference between two checkpoints'
// durable state, or returns "" when there is none. Directories, their
// entries and dead directories are compared in sorted order, and block
// contents without their trailing zeros: a live server's checkpoint holds
// every block it owns in full, a replica's only the blocks it was written.
func durableDiff(a, b *wal.Checkpoint) string {
	norm := func(c *wal.Checkpoint) *wal.Checkpoint {
		n := *c
		n.LSN = 0
		n.Inodes = slices.Clone(c.Inodes)
		for i := range n.Inodes {
			in := &n.Inodes[i]
			in.Data = slices.Clone(in.Data)
			for j := range in.Data {
				in.Data[j] = bytes.TrimRight(in.Data[j], "\x00")
			}
		}
		n.Dirs = slices.Clone(c.Dirs)
		for i := range n.Dirs {
			n.Dirs[i].Ents = slices.Clone(n.Dirs[i].Ents)
			slices.SortFunc(n.Dirs[i].Ents, func(x, y wal.DirEntSnap) int { return strings.Compare(x.Name, y.Name) })
		}
		inoCmp := func(x, y proto.InodeID) int {
			return cmp.Or(cmp.Compare(x.Server, y.Server), cmp.Compare(x.Local, y.Local))
		}
		slices.SortFunc(n.Dirs, func(x, y wal.DirSnap) int { return inoCmp(x.Dir, y.Dir) })
		n.DeadDirs = slices.Clone(c.DeadDirs)
		slices.SortFunc(n.DeadDirs, inoCmp)
		return &n
	}
	x, y := norm(a), norm(b)
	same := func(p, q wal.Checkpoint) bool { return bytes.Equal(p.Marshal(), q.Marshal()) }
	for i := range min(len(x.Inodes), len(y.Inodes)) {
		p, q := x.Inodes[i], y.Inodes[i]
		p.Data, q.Data = nil, nil
		if !same(wal.Checkpoint{Inodes: []wal.InodeSnap{p}}, wal.Checkpoint{Inodes: []wal.InodeSnap{q}}) {
			return fmt.Sprintf("inode %+v, want %+v", p, q)
		}
		for j := range x.Inodes[i].Data {
			if got, want := x.Inodes[i].Data[j], y.Inodes[i].Data[j]; !bytes.Equal(got, want) {
				return fmt.Sprintf("inode %d block %d holds %q, want %q", p.Local, p.Blocks[j], got, want)
			}
		}
	}
	if !same(wal.Checkpoint{Dirs: x.Dirs}, wal.Checkpoint{Dirs: y.Dirs}) {
		return fmt.Sprintf("directories %+v, want %+v", x.Dirs, y.Dirs)
	}
	if !slices.Equal(x.DeadDirs, y.DeadDirs) {
		return fmt.Sprintf("dead directories %v, want %v", x.DeadDirs, y.DeadDirs)
	}
	if !same(*x, *y) {
		return fmt.Sprintf("next inode %d, epoch %d, %d inodes; want %d, %d, %d",
			x.NextIno, x.Epoch, len(x.Inodes), y.NextIno, y.Epoch, len(y.Inodes))
	}
	return ""
}
