package repl

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/proto"
	"repro/internal/wal"
)

// The replication plane hands Ingest records decoded in place in a buffer it
// overwrites with the next message (wal.DecodeRecordsInto). These tests pin
// the rule that makes that safe: nothing the replica keeps points into them.

// scriptBatches turns fuzz bytes into consecutive batches of one to four
// records each, LSNs from 1: every record type, a handful of inodes,
// directories, names, blocks and payloads, so that records meet state that
// earlier ones built.
func scriptBatches(script []byte) (batches [][]wal.Record, bases []uint64) {
	lsn := uint64(1)
	for len(script) >= 2 && len(batches) < 48 {
		n := 1 + int(script[0]%4)
		script = script[1:]
		var recs []wal.Record
		for ; n > 0 && len(script) >= 2; n-- {
			a, b := script[0], script[1]
			script = script[2:]
			r := wal.Record{
				Type:   wal.RecType(1 + a%9),
				Ino:    2 + uint64(b%4),
				Dir:    proto.InodeID{Server: 0, Local: 1 + uint64(a>>4%2)},
				Name:   fmt.Sprintf("name-%0*d", 1+int(b>>2%24), b%5),
				Target: proto.InodeID{Server: 0, Local: 2 + uint64(b%4)},
				Ftype:  1,
				Nlink:  int32(b>>6) - 1,
				Size:   int64(b) * 3,
				Off:    int64(a>>4) * 5,
				Epoch:  uint64(b),
			}
			for i := byte(0); i < b>>3%4; i++ {
				r.Blocks = append(r.Blocks, 10+uint64((a+i)%6))
			}
			if r.Type == wal.RecWrite || r.Type == wal.RecEpoch {
				r.Data = bytes.Repeat([]byte{a, b}, 1+int(a%40))
			}
			recs = append(recs, r)
		}
		if len(recs) == 0 {
			break
		}
		batches, bases = append(batches, batch(lsn, recs...)), append(bases, lsn)
		lsn += uint64(len(recs))
	}
	return batches, bases
}

// FuzzFollowerIngest delivers the script's batches in the given order —
// every byte of order picks one, so batches repeat, go missing and arrive
// early, and an early one is answered with a request for a rebase that never
// comes — to two replicas. One is fed the way the replication plane feeds it:
// decoded in place into one reused record slice from one reused buffer, both
// overwritten as soon as Ingest returns. Its twin gets private copies nobody
// touches again. They must agree on every answer and end in the same state.
func FuzzFollowerIngest(f *testing.F) {
	// One record of the script: its type, and the byte the rest derives from
	// (inode 2 + b%4, b>>3%4 blocks, link count b>>6 − 1, the name).
	op := func(t wal.RecType, b byte) []byte { return []byte{byte(t) - 1, b} }
	script := bytes.Join([][]byte{
		{3}, op(wal.RecInode, 128), op(wal.RecAddMap, 0), op(wal.RecBlocks, 16), op(wal.RecWrite, 0),
		{0}, op(wal.RecEpoch, 200),
		{1}, op(wal.RecAddMap, 5), op(wal.RecRmMap, 0),
		{0}, op(wal.RecWrite, 0),
		{3}, op(wal.RecInode, 129), op(wal.RecAddMap, 1), op(wal.RecNlink, 1),
		{byte(wal.RecDirKill) - 1 + 9, 0}, // + 9: the other directory, or no entry would be left
		{1}, op(wal.RecBlocks, 24), op(wal.RecWrite, 16),
	}, nil)
	for _, order := range [][]byte{
		{0, 1, 2, 3, 4, 5},          // in order
		{0, 1, 1, 2, 0, 3, 4, 4, 5}, // duplicates
		{0, 3, 2, 5, 1, 4},          // early batches ask for a rebase and apply nothing
		{1, 2, 3, 4, 5},             // the first batch never comes
		{5, 4, 3, 2, 1, 0, 0},
	} {
		f.Add(script, order)
	}
	f.Fuzz(func(t *testing.T, script, order []byte) {
		batches, bases := scriptBatches(script)
		if len(batches) == 0 {
			return
		}
		recycled, private := NewFollower(0, testBlockSize), NewFollower(0, testBlockSize)
		var buf []byte
		var recs []wal.Record
		for _, pick := range order {
			i := int(pick) % len(batches)
			frames := wal.EncodeRecords(batches[i])
			own, err := wal.DecodeRecordsInto(nil, bytes.Clone(frames))
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf[:0], frames...)
			if recs, err = wal.DecodeRecordsInto(recs, buf); err != nil {
				t.Fatal(err)
			}
			needR, needP := recycled.Ingest(bases[i], recs), private.Ingest(bases[i], own)
			recs = wal.ReleaseRecords(recs)
			for j := range buf {
				buf[j] = 0xff
			}
			for _, r := range recs[:cap(recs)] {
				for k := range r.Blocks {
					r.Blocks[k] = ^uint64(0)
				}
			}
			if needR != needP || recycled.Durable() != private.Durable() {
				t.Fatalf("batch %d: recycled says resync=%v durable=%d, private resync=%v durable=%d",
					i, needR, recycled.Durable(), needP, private.Durable())
			}
		}
		if got, want := recycled.Snapshot().Marshal(), private.Snapshot().Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("the replica fed from a recycled buffer diverged:\n got %+v\nwant %+v", recycled.Snapshot(), private.Snapshot())
		}
	})
}

// TestIngestSteadyStateAllocs pins the follower's side of the durable path
// (DESIGN.md §13): decoding a shipped batch and ingesting it allocates only
// for what the replica newly keeps, so a batch that updates state it already
// has — a size, a link count, a block list of the same length, bytes into a
// block it holds, an entry removed — allocates nothing.
func TestIngestSteadyStateAllocs(t *testing.T) {
	f := NewFollower(0, testBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	f.Ingest(1, batch(1,
		mkfile(2),
		addmap(dir, "resident", proto.InodeID{Server: 0, Local: 2}),
		wal.Record{Type: wal.RecBlocks, Ino: 2, Blocks: []uint64{9, 10}, Size: 100},
		wal.Record{Type: wal.RecWrite, Ino: 2, Data: bytes.Repeat([]byte{7}, 100)},
	))
	frames := wal.EncodeRecords(batch(5,
		wal.Record{Type: wal.RecSize, Ino: 2, Size: 120},
		wal.Record{Type: wal.RecNlink, Ino: 2, Nlink: 2},
		wal.Record{Type: wal.RecBlocks, Ino: 2, Blocks: []uint64{9, 11}, Size: 120},
		wal.Record{Type: wal.RecWrite, Ino: 2, Off: 20, Data: bytes.Repeat([]byte{8}, 100)},
		wal.Record{Type: wal.RecRmMap, Dir: dir, Name: "never-there"},
	))
	var recs []wal.Record
	base := uint64(5)
	ingest := func() {
		var err error
		if recs, err = wal.DecodeRecordsInto(recs, frames); err != nil {
			t.Fatal(err)
		}
		if f.Ingest(base, recs) {
			t.Fatal("an in-order batch asked for a resync")
		}
		base += uint64(len(recs))
	}
	ingest()
	if got := testing.AllocsPerRun(200, ingest); got != 0 {
		t.Errorf("%.2f allocations per ingested batch, want 0", got)
	}
	if f.Durable() != base-1 {
		t.Fatalf("durable = %d, want %d", f.Durable(), base-1)
	}
}
