package wal

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/sim"
)

// shipBatch builds a representative mixed batch with assigned LSNs.
func shipBatch() []Record {
	return []Record{
		{LSN: 5, Type: RecInode, Ino: 2, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1},
		{LSN: 6, Type: RecAddMap, Dir: proto.InodeID{Server: 0, Local: 1}, Name: "a",
			Target: proto.InodeID{Server: 1, Local: 2}, Ftype: fsapi.TypeRegular},
		{LSN: 7, Type: RecBlocks, Ino: 2, Blocks: []uint64{40, 41}, Size: 8192},
		{LSN: 8, Type: RecWrite, Ino: 2, Off: 100, Data: []byte("shipped bytes")},
	}
}

func TestEncodeDecodeRecordsRoundTrip(t *testing.T) {
	in := shipBatch()
	b := EncodeRecords(in)
	out, err := DecodeRecordsInto(nil, b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].LSN != in[i].LSN || out[i].Type != in[i].Type || out[i].Ino != in[i].Ino ||
			out[i].Name != in[i].Name || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
	if got, err := DecodeRecordsInto(nil, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v records, err %v", got, err)
	}
}

// TestDecodeRecordsRejectsTruncation pins the all-or-nothing contract: a
// shipped batch travels in one message, so a cut-off tail must fail the
// whole decode rather than return a prefix the follower would ack.
func TestDecodeRecordsRejectsTruncation(t *testing.T) {
	b := EncodeRecords(shipBatch())
	for _, cut := range []int{1, frameHeader - 1, frameHeader + 3, len(b) - 1} {
		if _, err := DecodeRecordsInto(nil, b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(b))
		}
	}
}

// TestDecodeRecordsRejectsCorruption flips one byte in the middle of the
// batch: the frame CRC must fail the whole decode, not just the touched
// record.
func TestDecodeRecordsRejectsCorruption(t *testing.T) {
	b := EncodeRecords(shipBatch())
	mut := append([]byte(nil), b...)
	mut[len(mut)/2] ^= 0xff
	if _, err := DecodeRecordsInto(nil, mut); err == nil {
		t.Fatal("corrupted batch decoded without error")
	}
}

// TestDecodeRecordsIntoReusesTheDestination decodes two different batches
// into one slice: the second decode must show nothing of the first, must
// reuse the slots' block-list capacity, and must point Name and Data into the
// frames it was given — the contract the replication plane's recycling
// leans on.
func TestDecodeRecordsIntoReusesTheDestination(t *testing.T) {
	first := EncodeRecords(shipBatch())
	recs, err := DecodeRecordsInto(nil, first)
	if err != nil {
		t.Fatal(err)
	}
	blocks := &recs[2].Blocks[0]
	second := EncodeRecords([]Record{
		{LSN: 9, Type: RecRmMap, Dir: proto.InodeID{Server: 0, Local: 1}, Name: "a"},
		{LSN: 10, Type: RecNlink, Ino: 2},
		{LSN: 11, Type: RecBlocks, Ino: 2, Blocks: []uint64{77}, Size: 4096},
	})
	recs, err = DecodeRecordsInto(recs, second)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeRecordsInto(nil, bytes.Clone(second))
	if !sameRecords(recs, want) {
		t.Fatalf("decoded into a used slice:\n got %+v\nwant %+v", recs, want)
	}
	if &recs[2].Blocks[0] != blocks {
		t.Error("the block list was not decoded into the slot's capacity")
	}
	for i := range second {
		second[i] = 0xff
	}
	if recs[0].Name == "a" {
		t.Error("Name is a copy: an in-place decode points into the frames")
	}
}

// sameRecords compares two decoded batches field by field, an empty list
// being equal to a nil one.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !slices.Equal(x.Blocks, y.Blocks) || !bytes.Equal(x.Data, y.Data) {
			return false
		}
		x.Blocks, x.Data, y.Blocks, y.Data = nil, nil, nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// hostileCountFrame is a well-framed record — length and CRC are right —
// whose block list claims n entries it does not carry.
func hostileCountFrame(n uint32) []byte {
	r := Record{LSN: 1, Type: RecBlocks, Ino: 2}
	body := appendFrame(nil, &r)[frameHeader:]
	putU32(body[len(body)-4:], n) // an empty list's count ends the body
	return reframe(body)
}

// TestHostileCountSizesNoAllocation feeds the three places a block list is
// decoded — a shipped batch, a segment scan, a checkpoint — a count of
// 2³²−1 behind a valid CRC. The count used to size the allocation (32 GiB);
// now the bytes that remain bound it and the decode fails.
func TestHostileCountSizesNoAllocation(t *testing.T) {
	f := hostileCountFrame(1<<32 - 1)
	if recs, err := DecodeRecordsInto(nil, f); err == nil || len(recs) != 0 {
		t.Errorf("shipped batch: %d records, err %v", len(recs), err)
	}
	st := NewMemStore()
	if err := st.Append(0, f); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := readSegment(st, 0, 0); err == nil || len(recs) != 0 {
		t.Errorf("segment scan: %d records, err %v", len(recs), err)
	}

	c := Checkpoint{LSN: 3, Inodes: []InodeSnap{{Local: 2, Nlink: 1}}}
	b := c.Marshal()
	// The inode's block count is the last word but three of the body: an
	// empty Data list, no directories and no dead directories follow it.
	putU32(b[len(b)-16:], 1<<32-1)
	putU32(b, crc32.Checksum(b[4:], crcTable))
	if _, err := UnmarshalCheckpoint(b); err == nil {
		t.Error("checkpoint with a hostile block count decoded")
	}
}

// dirtyRecords is a destination that has been used: two slots in use and
// more behind them, every field set and every slice with spare capacity.
func dirtyRecords() []Record {
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = Record{LSN: 99, Type: RecWrite, Ino: 98, Dir: proto.InodeID{Server: 9, Local: 9}, Name: "stale",
			Target: proto.InodeID{Server: 8, Local: 8}, Ftype: fsapi.TypeDir, Mode: fsapi.Mode755, Dist: true,
			Size: 97, Off: 96, Nlink: 95, Blocks: append(make([]uint64, 0, 4), 94, 93), Data: []byte("stale"), Epoch: 92}
	}
	return recs[:2]
}

// FuzzDecodeFrames is the shipped-batch decoder's contract over arbitrary
// bytes: decoding into a used slice gives what decoding into a fresh one
// gives, and a batch is taken whole or not at all — truncation, CRC damage
// and a hostile count leave no record behind.
func FuzzDecodeFrames(f *testing.F) {
	good := EncodeRecords(shipBatch())
	f.Add(good)
	for cut := len(good) - 1; cut > 0; cut-- { // a cut inside every field of every frame
		f.Add(bytes.Clone(good[:cut]))
	}
	damaged := bytes.Clone(good)
	damaged[len(damaged)/2] ^= 0xff
	f.Add(damaged)
	f.Add(append(bytes.Clone(good), hostileCountFrame(1<<32-1)...))
	f.Add(hostileCountFrame(3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, errF := DecodeRecordsInto(nil, bytes.Clone(data))
		dirty, errD := DecodeRecordsInto(dirtyRecords(), bytes.Clone(data))
		if (errF == nil) != (errD == nil) {
			t.Fatalf("fresh destination: %v; used destination: %v", errF, errD)
		}
		if errF != nil {
			if len(fresh) != 0 || len(dirty) != 0 {
				t.Fatalf("a rejected batch left %d and %d records behind", len(fresh), len(dirty))
			}
			return
		}
		if !sameRecords(dirty, fresh) {
			t.Fatalf("used destination:\n got %+v\nwant %+v", dirty, fresh)
		}
		// What was decoded encodes to frames that decode to the same again.
		again, err := DecodeRecordsInto(nil, EncodeRecords(dirty))
		if err != nil || !sameRecords(again, fresh) {
			t.Fatalf("re-encoded batch: err %v\n got %+v\nwant %+v", err, again, fresh)
		}
	})
}

// discardStore takes appends and keeps nothing: the log's own allocations
// are all that is left to count.
type discardStore struct{ MemStore }

func (*discardStore) Append(uint64, []byte) error { return nil }

// TestAppendSteadyStateAllocs pins the log's side of the durable path
// (DESIGN.md §13): once the frame buffer has grown to a batch's size, an
// append of staged records — names, a block list and data among them —
// allocates nothing.
func TestAppendSteadyStateAllocs(t *testing.T) {
	cfg := testConfig(&discardStore{})
	cfg.SegmentBytes = 1 << 30
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := shipBatch()
	var now sim.Cycles
	appendOnce := func() {
		now += 1000
		if _, _, err := l.Append(recs, now); err != nil {
			t.Fatal(err)
		}
	}
	appendOnce()
	if got := testing.AllocsPerRun(200, appendOnce); got != 0 {
		t.Errorf("%.2f allocations per Append of a staged batch, want 0", got)
	}
}
