package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
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

// typeFields names the fields each record type's frame carries beside LSN
// and Type: what Image.Apply reads for it (the layout table of DESIGN.md §6).
var typeFields = map[RecType][]string{
	RecInode:     {"Ino", "Ftype", "Mode", "Dist", "Nlink"},
	RecNlink:     {"Ino", "Nlink"},
	RecSize:      {"Ino", "Size"},
	RecBlocks:    {"Ino", "Size", "Blocks"},
	RecWrite:     {"Ino", "Off", "Data"},
	RecAddMap:    {"Dir", "Name", "Target", "Ftype", "Dist"},
	RecRmMap:     {"Dir", "Name"},
	RecDirKill:   {"Dir"},
	RecEpoch:     {"Epoch", "Data"},
	RecDirMark:   {"Dir"},
	RecDirUnmark: {"Dir"},
}

// carried is r as its type's frame carries it: every other field zero.
func carried(r Record) Record {
	out := Record{LSN: r.LSN, Type: r.Type}
	src, dst := reflect.ValueOf(r), reflect.ValueOf(&out).Elem()
	for _, f := range typeFields[r.Type] {
		dst.FieldByName(f).Set(src.FieldByName(f))
	}
	return out
}

// fullRecord has every field of a record set, whatever its type.
func fullRecord(t RecType) Record {
	return Record{
		LSN:    42,
		Type:   t,
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
		Epoch:  6,
	}
}

// TestRecordRoundTrip round-trips a record with every field set under each
// type: what comes back is the fields that type carries, and nothing of the
// rest.
func TestRecordRoundTrip(t *testing.T) {
	if len(typeFields) != len(recNames) {
		t.Fatalf("the layout table covers %d types, the log has %d", len(typeFields), len(recNames))
	}
	for typ := RecInode; typ <= RecDirUnmark; typ++ {
		t.Run(typ.String(), func(t *testing.T) {
			in := fullRecord(typ)
			body, rest, err := unframe(appendFrame(nil, &in))
			if err != nil || len(rest) != 0 {
				t.Fatalf("unframe: %v, %d bytes left over", err, len(rest))
			}
			out, err := decodeRecord(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if want := carried(in); !sameRecords([]Record{out}, []Record{want}) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", out, want)
			}
		})
	}
}

// TestFrameSizes is the gate on the layout: a type's frame — header, LSN and
// type included — holds its own fields and nothing else, so the log cannot
// grow back to one shape for all.
func TestFrameSizes(t *testing.T) {
	name := len(fullRecord(0).Name)
	for _, c := range []struct {
		typ RecType
		max int
	}{
		{RecNlink, 29},
		{RecSize, 33},
		{RecInode, 33},
		{RecRmMap, 33 + name},
		{RecAddMap, 47 + name},
		{RecDirKill, 29},
		{RecDirMark, 29},
		{RecDirUnmark, 29},
	} {
		r := fullRecord(c.typ)
		if got := len(appendFrame(nil, &r)); got > c.max {
			t.Errorf("%v frame is %d bytes, want at most %d", c.typ, got, c.max)
		}
	}
}

// reframe wraps body in a frame whose length and CRC are right.
func reframe(body []byte) []byte {
	f := make([]byte, frameHeader, frameHeader+len(body))
	wire.PutU32(f, uint32(len(body)))
	wire.PutU32(f[4:], crc32.Checksum(body, crcTable))
	return append(f, body...)
}

// TestDecodeRejectsUnknownTypeAndTrailingBytes: a well-framed body of a type
// the log does not know, or with bytes after its type's fields, is no record
// — neither in a shipped batch nor in a segment scan.
func TestDecodeRejectsUnknownTypeAndTrailingBytes(t *testing.T) {
	r := Record{LSN: 1, Type: RecNlink, Ino: 2, Nlink: 1}
	body := appendFrame(nil, &r)[frameHeader:]
	unknown := bytes.Clone(body)
	unknown[8] = uint8(RecDirUnmark) + 1
	invalid := bytes.Clone(body)
	invalid[8] = uint8(recInvalid)
	for name, b := range map[string][]byte{
		"unknown type":   unknown,
		"type zero":      invalid,
		"trailing byte":  append(bytes.Clone(body), 0),
		"trailing field": append(bytes.Clone(body), body...),
	} {
		if _, err := decodeRecord(b); err == nil {
			t.Errorf("%s: body decoded", name)
		}
		f := reframe(b)
		if recs, err := DecodeRecordsInto(nil, f); err == nil || len(recs) != 0 {
			t.Errorf("%s: shipped batch gave %d records, err %v", name, len(recs), err)
		}
		st := NewMemStore()
		st.Append(0, appendFrame(nil, &r))
		st.Append(0, f)
		if recs, _, err := readSegment(st, 0, 0); err == nil || len(recs) != 1 {
			t.Errorf("%s: segment scan gave %d records, err %v; want the one before it", name, len(recs), err)
		}
	}
}

// FuzzRecordRoundTrip: any record, framed and decoded — on its own and in
// place into a used slot — gives back the fields its type carries, and the
// frame is as long as its body says.
func FuzzRecordRoundTrip(f *testing.F) {
	for typ := RecInode; typ <= RecDirUnmark; typ++ {
		r := fullRecord(typ)
		f.Add(uint8(typ-1), r.LSN, r.Ino, r.Dir.Server, r.Dir.Local, r.Name, r.Target.Local,
			uint8(r.Ftype), uint16(r.Mode), r.Dist, r.Size, r.Off, r.Nlink, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, r.Data, r.Epoch)
	}
	f.Add(uint8(0), uint64(0), uint64(0), int32(0), uint64(0), "", uint64(0),
		uint8(0), uint16(0), false, int64(0), int64(0), int32(0), []byte(nil), []byte(nil), uint64(0))
	f.Fuzz(func(t *testing.T, typ uint8, lsn, ino uint64, dirServer int32, dirLocal uint64, name string, target uint64,
		ftype uint8, mode uint16, dist bool, size, off int64, nlink int32, blocks, data []byte, epoch uint64) {
		r := Record{LSN: lsn, Type: RecType(1 + typ%uint8(RecDirUnmark)), Ino: ino,
			Dir: proto.InodeID{Server: dirServer, Local: dirLocal}, Name: name,
			Target: proto.InodeID{Server: dirServer ^ 1, Local: target}, Ftype: fsapi.FileType(ftype),
			Mode: fsapi.Mode(mode), Dist: dist, Size: size, Off: off, Nlink: nlink, Data: data, Epoch: epoch}
		for ; len(blocks) >= 8; blocks = blocks[8:] {
			r.Blocks = append(r.Blocks, binary.LittleEndian.Uint64(blocks))
		}
		want := []Record{carried(r)}
		frame := appendFrame(nil, &r)
		if int(wire.U32(frame)) != len(frame)-frameHeader {
			t.Fatalf("a %d-byte frame says its body is %d bytes", len(frame), wire.U32(frame))
		}
		body, _, err := unframe(frame)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeRecord(body)
		if err != nil || !sameRecords([]Record{out}, want) {
			t.Fatalf("decoded: err %v\n got %+v\nwant %+v", err, out, want[0])
		}
		in, err := DecodeRecordsInto(dirtyRecords(), frame)
		if err != nil || !sameRecords(in, want) {
			t.Fatalf("decoded in place: err %v\n got %+v\nwant %+v", err, in, want[0])
		}
	})
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
	ckpt, _, recs, _, err := l.Recover()
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
	ckpt, _, recs, _, err := l.Recover()
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
	ckpt, _, recs, _, err := l2.Recover()
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
	_, _, recs, _, _ = l2.Recover()
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
	_, _, recs, _, err := l2.Recover()
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
	if _, _, _, _, err := l.Recover(); err == nil {
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
	if _, _, _, _, err := l.Recover(); err == nil {
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
	_, _, recs, _, err := l.Recover()
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want the 1 intact one", len(recs))
	}
}

// FuzzRecoverSegments splices arbitrary bytes into a real log the way a crash
// leaves one: as the torn tail of the last segment the log wrote, and as a
// second segment the log rotated into before the crash. The n records the
// log acknowledged come first; the seeds also frame the (n+1)th, the append
// the crash tore, whole or cut. Recovery never panics: it either fails with a
// log gap, or returns a gap-free LSN run from the checkpoint's LSN + 1 that
// holds every acknowledged record after the checkpoint, each record equal to
// the one appended under its LSN. A log reopened over the same store resumes
// after everything recovery returned.
func FuzzRecoverSegments(f *testing.F) {
	next := fuzzLogRecord(6) // the torn append after 5 acknowledged records
	frame := appendFrame(nil, &next)
	f.Add(uint8(5), uint8(0), []byte(nil), []byte(nil))
	f.Add(uint8(5), uint8(2), []byte(nil), []byte(nil))
	f.Add(uint8(5), uint8(0), bytes.Clone(frame), []byte(nil))
	f.Add(uint8(5), uint8(0), bytes.Clone(frame[:len(frame)-3]), []byte(nil))
	f.Add(uint8(5), uint8(3), []byte(nil), bytes.Clone(frame))
	f.Add(uint8(5), uint8(0), []byte(nil), bytes.Clone(frame[:frameHeader+2]))
	f.Add(uint8(5), uint8(0), bytes.Clone(frame), bytes.Clone(frame)) // the same LSN twice
	f.Add(uint8(3), uint8(4), []byte(nil), bytes.Clone(frame))        // LSN 5 never reached the log
	f.Add(uint8(5), uint8(5), []byte{0x03, 0x00, 0x00}, append(bytes.Clone(frame), 0xde, 0xad))
	f.Fuzz(func(t *testing.T, n, ck uint8, tail, second []byte) {
		n = 1 + n%12
		ck %= n + 1
		st := NewMemStore()
		cfg := testConfig(st)
		l, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= uint64(n); i++ {
			if _, _, err := l.Append([]Record{fuzzLogRecord(i)}, sim.Cycles(i)); err != nil {
				t.Fatal(err)
			}
			if i == uint64(ck) {
				if err := l.WriteCheckpoint(&Checkpoint{NextIno: i + 2}); err != nil {
					t.Fatal(err)
				}
			}
		}
		segs, _ := st.Segments()
		last := uint64(0)
		if len(segs) > 0 {
			last = segs[len(segs)-1]
			st.Append(last, tail)
		}
		if len(second) > 0 {
			st.Append(last+1, second)
		}

		check := func(recs []Record, err error) {
			t.Helper()
			if err != nil {
				if !strings.Contains(err.Error(), "log gap") {
					t.Fatalf("recovery failed with %v, want a log gap or success", err)
				}
				return
			}
			if len(recs) < int(n-ck) {
				t.Fatalf("recovered %d records, want at least the %d acknowledged after the checkpoint", len(recs), n-ck)
			}
			for i, r := range recs {
				if r.LSN != uint64(ck)+1+uint64(i) {
					t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, uint64(ck)+1+uint64(i))
				}
				if r.LSN > uint64(n)+1 || !sameRecords([]Record{r}, []Record{fuzzLogRecord(r.LSN)}) {
					t.Fatalf("recovered %+v, which was never appended", r)
				}
			}
		}
		_, _, recs, _, err := l.Recover()
		check(recs, err)

		l2, err2 := Open(cfg)
		if err2 != nil {
			t.Fatalf("reopen: %v", err2)
		}
		_, _, again, _, err2 := l2.Recover()
		if (err == nil) != (err2 == nil) || !sameRecords(again, recs) {
			t.Fatalf("a reopened log recovers %d records (%v), the first %d (%v)", len(again), err2, len(recs), err)
		}
		r := Record{Type: RecSize, Ino: 1, Size: 1}
		if _, _, err := l2.Append([]Record{r}, 1000); err != nil {
			t.Fatal(err)
		}
		if want := uint64(ck) + uint64(len(recs)) + 1; err == nil && l2.Stats().LastLSN != want {
			t.Fatalf("the reopened log appended at LSN %d, want %d", l2.Stats().LastLSN, want)
		}
	})
}

// fuzzLogRecord is the record FuzzRecoverSegments appends under LSN i:
// every type in turn, each with what that type carries.
func fuzzLogRecord(i uint64) Record {
	r := Record{LSN: i, Type: RecType(1 + i%9), Ino: i, Dir: proto.InodeID{Server: 1, Local: i},
		Name: fmt.Sprintf("n%d", i), Size: int64(i) * 100, Nlink: int32(i % 3)}
	if i%2 == 0 {
		r.Blocks = []uint64{i, i + 1}
		r.Data = bytes.Repeat([]byte{byte(i)}, int(i)*7)
	}
	return carried(r)
}
