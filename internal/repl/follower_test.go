package repl

import (
	"bytes"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/wal"
)

const testBlockSize = 64

// batch assigns consecutive LSNs from base to the given records.
func batch(base uint64, recs ...wal.Record) []wal.Record {
	for i := range recs {
		recs[i].LSN = base + uint64(i)
	}
	return recs
}

func mkfile(ino uint64) wal.Record {
	return wal.Record{Type: wal.RecInode, Ino: ino, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1}
}

func addmap(dir proto.InodeID, name string, target proto.InodeID) wal.Record {
	return wal.Record{Type: wal.RecAddMap, Dir: dir, Name: name, Target: target, Ftype: fsapi.TypeRegular}
}

func TestFollowerIngestBuildsSnapshot(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	need := f.Ingest(1, batch(1,
		mkfile(2),
		addmap(dir, "hello", proto.InodeID{Server: 0, Local: 2}),
		wal.Record{Type: wal.RecBlocks, Ino: 2, Blocks: []uint64{9}, Size: 5},
		wal.Record{Type: wal.RecWrite, Ino: 2, Off: 0, Data: []byte("hello")},
	))
	if need {
		t.Fatal("in-order ingest asked for a resync")
	}
	if f.Durable() != 4 {
		t.Fatalf("durable = %d, want 4", f.Durable())
	}
	c := f.Snapshot()
	if c.LSN != 4 || len(c.Inodes) != 1 || len(c.Dirs) != 1 {
		t.Fatalf("snapshot: LSN %d, %d inodes, %d dirs", c.LSN, len(c.Inodes), len(c.Dirs))
	}
	if c.Inodes[0].Size != 5 || !bytes.Equal(c.Inodes[0].Data[0][:5], []byte("hello")) {
		t.Fatalf("snapshot inode: size %d data %q", c.Inodes[0].Size, c.Inodes[0].Data[0][:5])
	}
	if c.Dirs[0].Ents[0].Name != "hello" {
		t.Fatalf("snapshot dirent: %+v", c.Dirs[0].Ents[0])
	}
}

// TestFollowerReIngestIdempotent re-ships an already-applied batch (what a
// recovered primary does when it retries the window): the horizon must not
// move and the snapshot must be byte-identical.
func TestFollowerReIngestIdempotent(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	b1 := batch(1, mkfile(2), addmap(dir, "x", proto.InodeID{Server: 0, Local: 2}))
	f.Ingest(1, b1)
	before := f.Snapshot().Marshal()

	if need := f.Ingest(1, b1); need {
		t.Fatal("re-ingest asked for a resync")
	}
	if f.Durable() != 2 {
		t.Fatalf("durable moved to %d on re-ingest", f.Durable())
	}
	if after := f.Snapshot().Marshal(); !bytes.Equal(before, after) {
		t.Fatal("re-ingest changed the snapshot")
	}

	// A batch that overlaps the horizon applies only its new suffix.
	b2 := batch(2, addmap(dir, "x", proto.InodeID{Server: 0, Local: 2}), addmap(dir, "y", proto.InodeID{Server: 0, Local: 3}))
	if need := f.Ingest(2, b2); need {
		t.Fatal("overlapping ingest asked for a resync")
	}
	if f.Durable() != 3 {
		t.Fatalf("durable = %d, want 3", f.Durable())
	}
}

// TestFollowerFutureBatchAsksForRebase delivers a batch from beyond the
// horizon — the batch in front of it went missing. The follower applies
// none of it and asks for a rebase; once the rebase lands, the next
// in-order batch applies.
func TestFollowerFutureBatchAsksForRebase(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	f.Ingest(1, batch(1, mkfile(2), addmap(dir, "a", proto.InodeID{Server: 0, Local: 2})))
	before := f.Snapshot().Marshal()

	if need := f.Ingest(4, batch(4, mkfile(3), addmap(dir, "b", proto.InodeID{Server: 0, Local: 3}))); !need {
		t.Fatal("a batch from beyond the horizon did not ask for a rebase")
	}
	if f.Durable() != 2 {
		t.Fatalf("durable = %d after a future batch, want 2", f.Durable())
	}
	if after := f.Snapshot().Marshal(); !bytes.Equal(before, after) {
		t.Fatal("a future batch changed the snapshot")
	}

	donor := NewFollower(0, testBlockSize)
	donor.Ingest(1, batch(1, mkfile(2), addmap(dir, "a", proto.InodeID{Server: 0, Local: 2}), mkfile(4)))
	f.Rebase(donor.Snapshot(), 5)
	if need := f.Ingest(6, batch(6, addmap(dir, "c", proto.InodeID{Server: 0, Local: 4}))); need {
		t.Fatal("the in-order batch after a rebase asked for another")
	}
	if f.Durable() != 6 {
		t.Fatalf("durable = %d, want 6", f.Durable())
	}
	if ents := f.Snapshot().Dirs[0].Ents; len(ents) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(ents))
	}
}

// TestFollowerKeepsNothingOfAFutureBatch delivers two batches out of order:
// the later one first. The follower keeps nothing of it, so when the gap
// fills, only the gap's batch applies, and the later one lands only once it
// is shipped again.
func TestFollowerKeepsNothingOfAFutureBatch(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	b1 := batch(1, mkfile(2))
	b2 := batch(2, addmap(dir, "a", proto.InodeID{Server: 0, Local: 2}))
	b3 := batch(3, addmap(dir, "b", proto.InodeID{Server: 0, Local: 2}))

	if need := f.Ingest(1, b1); need {
		t.Fatal("the first batch asked for a rebase")
	}
	if need := f.Ingest(3, b3); !need {
		t.Fatal("a batch from beyond the horizon did not ask for a rebase")
	}
	if need := f.Ingest(2, b2); need {
		t.Fatal("the batch that fills the gap asked for a rebase")
	}
	if f.Durable() != 2 {
		t.Fatalf("durable = %d after the gap filled, want 2: the future batch was kept", f.Durable())
	}
	if ents := f.Snapshot().Dirs[0].Ents; len(ents) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(ents))
	}
	if need := f.Ingest(3, b3); need {
		t.Fatal("the re-shipped batch asked for a rebase")
	}
	if f.Durable() != 3 {
		t.Fatalf("durable = %d after the re-ship, want 3", f.Durable())
	}
	if ents := f.Snapshot().Dirs[0].Ents; len(ents) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(ents))
	}
}

// TestFollowerSealFreezesHorizon pins the promotion contract: a sealed
// replica ignores further batches and keeps answering with the same
// snapshot, so a retried failover is idempotent.
func TestFollowerSealFreezesHorizon(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	f.Ingest(1, batch(1, mkfile(2)))
	f.Seal()
	if !f.Sealed() {
		t.Fatal("not sealed")
	}
	before := f.Snapshot().Marshal()
	if need := f.Ingest(2, batch(2, mkfile(3))); need {
		t.Fatal("sealed ingest asked for resync")
	}
	if f.Durable() != 1 {
		t.Fatalf("sealed replica advanced to %d", f.Durable())
	}
	f.Seal() // idempotent
	if after := f.Snapshot().Marshal(); !bytes.Equal(before, after) {
		t.Fatal("sealed snapshot changed")
	}
}

// TestFollowerRebaseReplacesState installs a snapshot mid-life and checks
// the horizon and contents come from the snapshot.
func TestFollowerRebaseReplacesState(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	f.Ingest(1, batch(1, mkfile(2))) // state that must vanish

	donor := NewFollower(0, testBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	donor.Ingest(1, batch(1,
		mkfile(7),
		addmap(dir, "kept", proto.InodeID{Server: 0, Local: 7}),
		wal.Record{Type: wal.RecBlocks, Ino: 7, Blocks: []uint64{3}, Size: 4},
		wal.Record{Type: wal.RecWrite, Ino: 7, Off: 0, Data: []byte("data")},
		mkfile(8),
		wal.Record{Type: wal.RecNlink, Ino: 8, Nlink: 0}, // reaped
	))
	c := donor.Snapshot()

	f.Rebase(c, 6)
	if f.Durable() != 6 {
		t.Fatalf("durable = %d after rebase, want 6", f.Durable())
	}
	got := f.Snapshot()
	if len(got.Inodes) != 1 || got.Inodes[0].Local != 7 {
		t.Fatalf("rebased inodes: %+v", got.Inodes)
	}
	if !bytes.Equal(got.Inodes[0].Data[0][:4], []byte("data")) {
		t.Fatalf("rebased data: %q", got.Inodes[0].Data[0][:4])
	}

	// Ingest continues from the rebased horizon.
	if need := f.Ingest(7, batch(7, mkfile(11))); need {
		t.Fatal("post-rebase ingest asked for resync")
	}
	if f.Durable() != 7 {
		t.Fatalf("durable = %d, want 7", f.Durable())
	}
}

// TestFollowerBlockHandoverZeroFill mirrors the replay rule: a block that
// leaves one inode and enters another must read as zeros on the new owner,
// not leak the old contents.
func TestFollowerBlockHandoverZeroFill(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	f.Ingest(1, batch(1,
		mkfile(2),
		wal.Record{Type: wal.RecBlocks, Ino: 2, Blocks: []uint64{5}, Size: 6},
		wal.Record{Type: wal.RecWrite, Ino: 2, Off: 0, Data: []byte("secret")},
		wal.Record{Type: wal.RecBlocks, Ino: 2, Blocks: nil, Size: 0}, // truncate: block 5 freed
		mkfile(3),
		wal.Record{Type: wal.RecBlocks, Ino: 3, Blocks: []uint64{5}, Size: 3}, // reused
	))
	c := f.Snapshot()
	for _, snap := range c.Inodes {
		if snap.Local == 3 {
			if len(snap.Data) != 1 || snap.Data[0] != nil {
				t.Fatalf("reused block leaked old contents: %q", snap.Data[0])
			}
			return
		}
	}
	t.Fatal("inode 3 missing from snapshot")
}

func TestModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Off, Sync} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
}
