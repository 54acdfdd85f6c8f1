package wal

import (
	"bytes"
	"testing"
)

// writeRecord is a WRITE record whose frame is n bytes long.
func writeRecord(n int) Record {
	return Record{Type: RecWrite, Ino: 2, Data: make([]byte, n-frameHeader-8-1-8-8-4)}
}

// fillPast appends WRITE records of frameLen bytes until the log's current
// segment holds more than limit bytes, and returns every record appended and
// the frames they were written as.
func fillPast(t *testing.T, l *Log, limit, frameLen int) (recs []Record, frames []byte) {
	t.Helper()
	for len(frames) <= limit {
		r := []Record{writeRecord(frameLen)}
		if _, _, err := l.Append(r, 0); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r[0])
		frames = append(frames, l.LastFrames()...)
	}
	return recs, frames
}

// TestMemStoreFrameAcrossChunks: frames that straddle chunk boundaries read
// back whole, and recovery replays every one of them.
func TestMemStoreFrameAcrossChunks(t *testing.T) {
	st := NewMemStore()
	cfg := testConfig(st)
	cfg.SegmentBytes = 1 << 20
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, frames := fillPast(t, l, 2*memChunk, 1000) // 1000 divides no chunk
	if got, err := st.Read(0); err != nil || !bytes.Equal(got, frames) {
		t.Fatalf("segment reads back %d bytes (%v), %d were appended", len(got), err, len(frames))
	}
	_, _, got, n, err := l.Recover()
	if err != nil || !sameRecords(got, recs) || n != int64(len(frames)) {
		t.Fatalf("recovered %d of %d records and %d of %d bytes (%v)", len(got), len(recs), n, len(frames), err)
	}
}

// TestMemStoreTornFrameAcrossChunks: a torn frame whose first bytes end one
// chunk and whose rest begins the next still ends the recovered prefix.
func TestMemStoreTornFrameAcrossChunks(t *testing.T) {
	st := NewMemStore()
	cfg := testConfig(st)
	cfg.SegmentBytes = 1 << 20
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, frames := fillPast(t, l, memChunk-1000, 500)
	if len(frames) >= memChunk {
		t.Fatalf("the acknowledged frames fill %d bytes, past the first chunk", len(frames))
	}
	torn := writeRecord(2000)
	torn.LSN = uint64(len(recs)) + 1
	f := appendFrame(nil, &torn)
	if len(frames)+len(f)-3 <= memChunk {
		t.Fatal("the torn frame ends inside the first chunk")
	}
	st.Append(0, f[:len(f)-3])
	_, _, got, n, err := l.Recover()
	if err != nil || !sameRecords(got, recs) || n != int64(len(frames)) {
		t.Fatalf("recovered %d of %d records and %d of %d bytes (%v)", len(got), len(recs), n, len(frames), err)
	}
}

// TestMemStoreAppendAllocs: a segment grows one chunk per chunk's worth of
// appends, and nothing else is allocated — no append copies what is stored.
func TestMemStoreAppendAllocs(t *testing.T) {
	st := NewMemStore()
	kib := make([]byte, 1024)
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < memChunk/len(kib); i++ {
			st.Append(0, kib)
		}
	})
	if got != 1 {
		t.Errorf("%.2f allocations per %d KiB appended, want 1", got, memChunk>>10)
	}
}
