package wal

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/sim"
)

func testConfig(st Store) Config {
	return Config{
		Store:           st,
		SegmentBytes:    512,
		FlushCycles:     100,
		AppendPerLine:   2,
		ReplayPerRecord: 50,
	}
}

func rec(t RecType, ino uint64) Record {
	return Record{Type: t, Ino: ino, Size: int64(ino) * 10}
}

func TestRecordRoundTrip(t *testing.T) {
	in := Record{
		LSN:    42,
		Type:   RecAddMap,
		Ino:    7,
		Dir:    proto.InodeID{Server: 3, Local: 9},
		Name:   "file.txt",
		Target: proto.InodeID{Server: 1, Local: 5},
		Ftype:  fsapi.TypeRegular,
		Mode:   fsapi.Mode644,
		Dist:   true,
		Size:   4096,
		Off:    128,
		Nlink:  2,
		Blocks: []uint64{10, 11, 12},
		Data:   []byte("hello"),
	}
	body, rest, err := unframe(appendFrame(nil, &in))
	if err != nil || len(rest) != 0 {
		t.Fatalf("unframe: %v, %d bytes left over", err, len(rest))
	}
	out, err := decodeRecord(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.LSN != in.LSN || out.Type != in.Type || out.Name != in.Name ||
		out.Dir != in.Dir || out.Target != in.Target || out.Off != in.Off ||
		len(out.Blocks) != 3 || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameCRCDetectsCorruption(t *testing.T) {
	r := rec(RecInode, 1)
	f := appendFrame(nil, &r)
	if _, _, err := unframe(f); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	f[frameHeader] ^= 0xff
	if _, _, err := unframe(f); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if _, _, err := unframe(f[:frameHeader-2]); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestAppendAndRecover(t *testing.T) {
	st := NewMemStore()
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var now sim.Cycles
	for i := uint64(1); i <= 20; i++ {
		now += 1000
		if _, _, err := l.Append([]Record{rec(RecInode, i)}, now); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ckpt, _, recs, err := l.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if ckpt != nil {
		t.Fatalf("unexpected checkpoint")
	}
	if len(recs) != 20 {
		t.Fatalf("recovered %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	// The tiny segment size must have forced rotation.
	segs, _ := st.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	st := NewMemStore()
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 5; i++ {
		if _, _, err := l.Append([]Record{rec(RecInode, i)}, sim.Cycles(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	c := &Checkpoint{
		NextIno: 6,
		Inodes: []InodeSnap{{
			Local: 2, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644,
			Size: 100, Nlink: 1, Blocks: []uint64{3},
			Data: [][]byte{[]byte("block-three")},
		}},
		Dirs: []DirSnap{{
			Dir:  proto.RootInode,
			Ents: []DirEntSnap{{Name: "a", Target: proto.InodeID{Server: 0, Local: 2}, Ftype: fsapi.TypeRegular}},
		}},
		DeadDirs: []proto.InodeID{{Server: 0, Local: 4}},
	}
	if err := l.WriteCheckpoint(c); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if segs, _ := st.Segments(); len(segs) != 0 {
		t.Fatalf("checkpoint left segments behind: %v", segs)
	}
	// Records after the checkpoint replay on top of it.
	if _, _, err := l.Append([]Record{rec(RecNlink, 9)}, 100); err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}
	ckpt, _, recs, err := l.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if ckpt == nil || ckpt.LSN != 5 || ckpt.NextIno != 6 {
		t.Fatalf("bad checkpoint: %+v", ckpt)
	}
	if len(ckpt.Inodes) != 1 || !bytes.Equal(ckpt.Inodes[0].Data[0], []byte("block-three")) {
		t.Fatalf("checkpoint inode snapshot mangled: %+v", ckpt.Inodes)
	}
	if len(recs) != 1 || recs[0].LSN != 6 {
		t.Fatalf("recovered tail %+v, want single LSN 6", recs)
	}
}

func TestCheckpointCRC(t *testing.T) {
	c := &Checkpoint{LSN: 3, NextIno: 4}
	b := c.Marshal()
	if _, err := UnmarshalCheckpoint(b); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	b[len(b)-1] ^= 0x01
	if _, err := UnmarshalCheckpoint(b); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCommitRule pins the commit point: a flush starts when the device is
// free and takes FlushCycles (100 here), whatever GroupCommitInterval says.
func TestCommitRule(t *testing.T) {
	steps := []struct {
		name      string
		now, want sim.Cycles
	}{
		{"idle device acks at now+Flush", 1000, 1100},
		{"device busy until 1100: flush starts there", 1050, 1200},
		{"append at the very flush end", 1200, 1300},
		{"stale now still queues behind the last flush", 900, 1400},
		{"idle again after a gap", 5000, 5100},
	}
	for _, interval := range []sim.Cycles{0, 1_000_000} {
		cfg := testConfig(NewMemStore())
		cfg.GroupCommitInterval = interval
		l, err := Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var prev sim.Cycles
		for i, st := range steps {
			ack, _, err := l.Append([]Record{rec(RecInode, uint64(i+1)), rec(RecSize, uint64(i+1))}, st.now)
			if err != nil {
				t.Fatalf("interval %d, %s: %v", interval, st.name, err)
			}
			if ack != st.want {
				t.Errorf("interval %d, %s: ack = %d, want %d", interval, st.name, ack, st.want)
			}
			if ack <= prev {
				t.Errorf("interval %d, %s: ack %d not after the previous batch's %d (acks must be monotone in LSN)", interval, st.name, ack, prev)
			}
			prev = ack
		}
		// One flush per append, however many records it carried.
		if got := l.Stats(); got.Flushes != uint64(len(steps)) || got.Records != uint64(2*len(steps)) {
			t.Errorf("interval %d: %d flushes for %d records, want %d for %d", interval, got.Flushes, got.Records, len(steps), 2*len(steps))
		}
	}
}

// TestAppendEncodesOnceIntoOneBuffer pins the encoder: a batch is framed into
// the log's reused buffer, so an append allocates at most twice whatever the
// record count, and LastFrames is exactly what reached the store.
func TestAppendEncodesOnceIntoOneBuffer(t *testing.T) {
	for _, n := range []int{1, 4, 64} {
		st := NewMemStore()
		cfg := testConfig(st)
		cfg.SegmentBytes = 1 << 30 // one segment, so the store holds the appends back to back
		l, err := Open(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Type: RecAddMap, Dir: proto.RootInode, Name: fmt.Sprintf("name-%03d", i), Data: []byte("xy")}
		}
		var now sim.Cycles
		allocs := testing.AllocsPerRun(200, func() {
			now += 1000
			if _, _, err := l.Append(recs, now); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%d records: %.1f allocations per Append, want at most 2", n, allocs)
		}
		last := l.LastFrames()
		if want := EncodeRecords(recs); !bytes.Equal(last, want) {
			t.Errorf("%d records: LastFrames differs from EncodeRecords of the same batch", n)
		}
		seg, err := st.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(seg, last) {
			t.Errorf("%d records: the store's tail is not the frames LastFrames reports", n)
		}
	}
}

func TestSynchronousCommitSerializesFlushes(t *testing.T) {
	cfg := testConfig(NewMemStore())
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ack1, _, _ := l.Append([]Record{rec(RecInode, 1)}, 1000)
	// A second append at the same instant queues behind the first flush.
	ack2, _, _ := l.Append([]Record{rec(RecInode, 2)}, 1000)
	if ack1 != 1100 || ack2 != 1200 {
		t.Fatalf("acks = %d, %d; want 1100, 1200", ack1, ack2)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("new file store: %v", err)
	}
	cfg := testConfig(st)
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 10; i++ {
		if _, _, err := l.Append([]Record{rec(RecInode, i)}, sim.Cycles(i*10)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.WriteCheckpoint(&Checkpoint{NextIno: 11}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, _, err := l.Append([]Record{rec(RecSize, 3)}, 1000); err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}

	// A second Log opened over the same directory (a process restart) sees
	// the checkpoint and the tail, and keeps allocating fresh LSNs.
	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	l2, err := Open(testConfig(st2))
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	ckpt, _, recs, err := l2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if ckpt == nil || ckpt.LSN != 10 || ckpt.NextIno != 11 {
		t.Fatalf("bad checkpoint after restart: %+v", ckpt)
	}
	if len(recs) != 1 || recs[0].LSN != 11 || recs[0].Type != RecSize {
		t.Fatalf("bad tail after restart: %+v", recs)
	}
	if _, _, err := l2.Append([]Record{rec(RecInode, 99)}, 2000); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	_, _, recs, _ = l2.Recover()
	if len(recs) != 2 || recs[1].LSN != 12 {
		t.Fatalf("restart log did not resume LSNs: %+v", recs)
	}
}

func TestRestartOverTornTailRotatesSegment(t *testing.T) {
	st := NewMemStore()
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, err := l.Append([]Record{rec(RecInode, 1)}, 10); err != nil {
		t.Fatalf("append: %v", err)
	}
	segs, _ := st.Segments()
	st.Append(segs[len(segs)-1], []byte{0x09, 0x00, 0x00, 0x00, 0xde, 0xad}) // torn frame

	// A restart must not append after the corruption: records written
	// there would be unreachable (readers stop at the first bad frame).
	l2, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if _, _, err := l2.Append([]Record{rec(RecNlink, 1)}, 20); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	_, _, recs, err := l2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want both (pre-crash and post-restart)", len(recs))
	}
	if recs[1].LSN <= recs[0].LSN {
		t.Fatalf("post-restart record reused an LSN: %d then %d", recs[0].LSN, recs[1].LSN)
	}
	if segs, _ := st.Segments(); len(segs) < 2 {
		t.Fatalf("restart did not rotate away from the torn segment: %v", segs)
	}
}

func TestRecoverDetectsLostPrefix(t *testing.T) {
	// A log whose surviving records do not start right after the
	// checkpoint (or at LSN 1) has lost durable mutations; recovery must
	// refuse rather than silently replay a partial history.
	st := NewMemStore()
	r := rec(RecInode, 7)
	r.LSN = 3 // records 1 and 2 are missing
	st.Append(0, appendFrame(nil, &r))
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, _, err := l.Recover(); err == nil {
		t.Fatal("recovery accepted a log missing its prefix")
	}
}

func TestRecoverDetectsMidLogGap(t *testing.T) {
	st := NewMemStore()
	for _, lsn := range []uint64{1, 2, 5, 6} { // 3 and 4 missing
		r := rec(RecInode, lsn)
		r.LSN = lsn
		st.Append(lsn/4, appendFrame(nil, &r)) // split across two segments
	}
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, _, err := l.Recover(); err == nil {
		t.Fatal("recovery accepted a log with a mid-log gap")
	}
}

func TestFailingSyncFailsAppend(t *testing.T) {
	st := &failingSyncStore{MemStore: NewMemStore()}
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, err := l.Append([]Record{rec(RecInode, 1)}, 10); err == nil {
		t.Fatal("append acknowledged despite a failing flush")
	}
}

// failingSyncStore wraps MemStore with a Sync that always fails.
type failingSyncStore struct{ *MemStore }

func (f *failingSyncStore) Sync() error { return errSyncBroken }

var errSyncBroken = fmt.Errorf("sync device broken")

func TestTornTailIsIgnored(t *testing.T) {
	st := NewMemStore()
	l, err := Open(testConfig(st))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, err := l.Append([]Record{rec(RecInode, 1)}, 10); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Simulate a torn write: garbage after the last intact frame.
	segs, _ := st.Segments()
	st.Append(segs[len(segs)-1], []byte{0x03, 0x00, 0x00})
	_, _, recs, err := l.Recover()
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want the 1 intact one", len(recs))
	}
}
