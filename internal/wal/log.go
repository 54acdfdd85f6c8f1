package wal

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Config describes one server's log.
type Config struct {
	// Store is the durable medium (MemStore in the simulator, FileStore for
	// real log directories).
	Store Store

	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. Default 1 MiB.
	SegmentBytes int

	// GroupCommitInterval is ignored. It set a commit timer that could
	// never batch two requests' records (DESIGN.md §6); the field remains
	// only because benchmark/ still assigns it, and goes with that
	// assignment (ROADMAP).
	GroupCommitInterval sim.Cycles

	// CheckpointEvery takes an automatic checkpoint after this many records
	// have been appended since the last one. Zero disables automatic
	// checkpoints (explicit Checkpoint calls still work).
	CheckpointEvery int

	// FlushCycles is the virtual cost of one flush (the latency a batch
	// pays at its commit point).
	FlushCycles sim.Cycles
	// AppendPerLine is the virtual CPU cost per 64 bytes logged.
	AppendPerLine sim.Cycles
	// ReplayPerRecord is the virtual cost per record replayed at recovery.
	ReplayPerRecord sim.Cycles
}

func (c *Config) normalize() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
}

// Stats counts one log's activity.
type Stats struct {
	Records     uint64
	Bytes       uint64
	Flushes     uint64
	Checkpoints uint64
	// CheckpointBytes is the size of the most recent checkpoint.
	CheckpointBytes uint64
	LastLSN         uint64
}

// RecoveryStats describes one server's recovery.
type RecoveryStats struct {
	Server           int
	UsedCheckpoint   bool
	CheckpointBytes  int
	CheckpointInodes int
	// Records and Bytes cover the log tail replayed after the checkpoint:
	// Bytes is the length of its frames, as recovery read them back.
	Records int
	Bytes   int64
	// Cycles is the virtual time the recovery work was charged.
	Cycles sim.Cycles
}

// Log is one file server's write-ahead log. The server appends from its own
// goroutine; Stats may be read concurrently, so the log locks internally.
//
// The Log object itself models the durable device head: it survives a
// simulated server crash the same way the MemStore does. Nothing buffered
// in the Log is lost at a crash because Append writes through to the store;
// the commit rule only decides *when in virtual time* a record counts as
// committed.
type Log struct {
	mu  sync.Mutex
	cfg Config

	seg      uint64 // current segment index
	segBytes int
	nextLSN  uint64 // next LSN to assign; LSNs start at 1
	ckptLSN  uint64 // last LSN covered by a checkpoint

	sinceCkpt int // records appended since the last checkpoint

	// lastFlushEnd is when the log device finishes the flush it is doing (or
	// last did), in virtual time: the next flush cannot start before it.
	lastFlushEnd sim.Cycles

	// frames holds the encoded frames of the most recent Append; the buffer
	// is reused from one append to the next.
	frames []byte

	// syncErr latches a failed store flush: once the durable medium has
	// failed, no further append may be acknowledged.
	syncErr error

	stats Stats
}

// Open builds a Log over a store, resuming after any existing segments (a
// restart over a FileStore continues where the previous process stopped).
func Open(cfg Config) (*Log, error) {
	cfg.normalize()
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	l := &Log{cfg: cfg, nextLSN: 1}
	if b, err := cfg.Store.LoadCheckpoint(); err == nil && b != nil {
		if c, cerr := UnmarshalCheckpoint(b); cerr == nil {
			l.ckptLSN = c.LSN
			if c.LSN >= l.nextLSN {
				l.nextLSN = c.LSN + 1
			}
		}
	}
	segs, err := cfg.Store.Segments()
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	tailTorn := false
	for _, s := range segs {
		if s >= l.seg {
			l.seg = s
		}
		// A frame error marks where a crash tore an append; parsing stops
		// there. Recover verifies LSN continuity across segments, which
		// is what actually detects lost records.
		recs, _, rerr := readSegment(cfg.Store, s, 0)
		if rerr != nil && s == segs[len(segs)-1] {
			tailTorn = true
		}
		for _, r := range recs {
			if r.LSN >= l.nextLSN {
				l.nextLSN = r.LSN + 1
			}
		}
	}
	if len(segs) > 0 {
		if tailTorn {
			// The newest segment ends in a torn frame (a crash mid-append).
			// Appending after the corruption would strand every later
			// record — readers stop at the first bad frame — so resume in
			// a fresh segment and leave the torn tail behind.
			l.seg++
			l.segBytes = 0
		} else {
			b, rerr := cfg.Store.Read(l.seg)
			if rerr == nil {
				l.segBytes = len(b)
			}
		}
	}
	return l, nil
}

// Append assigns LSNs to recs, writes them to the current segment as one
// batch, and returns the virtual time at which the flush carrying them ends
// (the acknowledgement time for the mutation they describe) plus the CPU
// cycles the caller should charge for the append work.
func (l *Log) Append(recs []Record, now sim.Cycles) (ack sim.Cycles, cpu sim.Cycles, err error) {
	if len(recs) == 0 {
		return now, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	for i := range recs {
		recs[i].LSN = l.nextLSN
		l.nextLSN++
	}
	buf := appendFrames(l.frames[:0], recs)
	l.frames = buf
	if l.segBytes > 0 && l.segBytes+len(buf) > l.cfg.SegmentBytes {
		l.seg++
		l.segBytes = 0
	}
	if err := l.cfg.Store.Append(l.seg, buf); err != nil {
		return now, 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segBytes += len(buf)
	l.sinceCkpt += len(recs)
	l.stats.Records += uint64(len(recs))
	l.stats.Bytes += uint64(len(buf))
	l.stats.LastLSN = l.nextLSN - 1

	cpu = sim.LineCost(l.cfg.AppendPerLine, len(buf))
	ack = l.commitTime(now)

	// Physical durability is write-through: every append reaches the
	// store's durable medium before it is acknowledged.
	if err := l.cfg.Store.Sync(); err != nil && l.syncErr == nil {
		l.syncErr = err
	}
	if l.syncErr != nil {
		// A flush failed: the records written since then are not durable
		// and must not be acknowledged.
		return now, cpu, fmt.Errorf("wal: flush: %w", l.syncErr)
	}
	return ack, cpu, nil
}

// commitTime returns the virtual time at which records appended at `now`
// are durable: their flush starts as soon as the device is free and takes
// FlushCycles. Callers hold l.mu.
func (l *Log) commitTime(now sim.Cycles) sim.Cycles {
	l.lastFlushEnd = max(now, l.lastFlushEnd) + l.cfg.FlushCycles
	l.stats.Flushes++
	return l.lastFlushEnd
}

// LastFrames returns the encoded frames the most recent Append wrote to the
// store: what a replication shipper sends, so that log and follower cannot
// disagree about record contents. The slice aliases the log's encode buffer
// and is valid only until the next Append.
func (l *Log) LastFrames() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames
}

// CheckpointDue reports whether enough records have accumulated since the
// last checkpoint that the server should snapshot its state.
func (l *Log) CheckpointDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg.CheckpointEvery > 0 && l.sinceCkpt >= l.cfg.CheckpointEvery
}

// WriteCheckpoint durably replaces the checkpoint with c and truncates the
// log: every record is now reflected in the snapshot, so all segments are
// removed and appending resumes in a fresh segment.
func (l *Log) WriteCheckpoint(c *Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	c.LSN = l.nextLSN - 1
	b := c.Marshal()
	if err := l.cfg.Store.SaveCheckpoint(b); err != nil {
		return fmt.Errorf("wal: saving checkpoint: %w", err)
	}
	segs, err := l.cfg.Store.Segments()
	if err != nil {
		return fmt.Errorf("wal: listing segments: %w", err)
	}
	for _, s := range segs {
		if err := l.cfg.Store.Remove(s); err != nil {
			return fmt.Errorf("wal: truncating segment %d: %w", s, err)
		}
	}
	l.seg++
	l.segBytes = 0
	l.ckptLSN = c.LSN
	l.sinceCkpt = 0
	l.stats.Checkpoints++
	l.stats.CheckpointBytes = uint64(len(b))
	return nil
}

// Recover loads the latest checkpoint (nil when none has been taken) and
// the log records to replay after it, in LSN order. ckptBytes is the size
// of the checkpoint as stored (0 without one), logBytes the length of the
// replayed records' frames.
func (l *Log) Recover() (ckpt *Checkpoint, ckptBytes int, recs []Record, logBytes int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	if b, lerr := l.cfg.Store.LoadCheckpoint(); lerr != nil {
		return nil, 0, nil, 0, fmt.Errorf("wal: loading checkpoint: %w", lerr)
	} else if b != nil {
		c, cerr := UnmarshalCheckpoint(b)
		if cerr != nil {
			return nil, 0, nil, 0, cerr
		}
		ckpt = c
		ckptBytes = len(b)
	}

	segs, serr := l.cfg.Store.Segments()
	if serr != nil {
		return nil, 0, nil, 0, fmt.Errorf("wal: listing segments: %w", serr)
	}
	// The records a checkpoint reflects are skipped.
	var after uint64
	if ckpt != nil {
		after = ckpt.LSN
	}
	for _, s := range segs {
		// Each segment may end in a torn frame (the crash that ended its
		// tenure as the active tail); parsing stops at the first bad
		// frame and the LSN continuity check below distinguishes benign
		// torn tails from records actually lost mid-log.
		srecs, n, _ := readSegment(l.cfg.Store, s, after)
		recs = append(recs, srecs...)
		logBytes += n
	}
	// Continuity: the replayed run must start right after the checkpoint
	// (or at LSN 1) and have no holes; anything else means durable records
	// were lost, not merely a torn tail.
	if first := after + 1; len(recs) > 0 && recs[0].LSN != first {
		return nil, 0, nil, 0, fmt.Errorf("wal: log gap: first record is %d, want %d", recs[0].LSN, first)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN != recs[i-1].LSN+1 {
			return nil, 0, nil, 0, fmt.Errorf("wal: log gap: record %d follows %d", recs[i].LSN, recs[i-1].LSN)
		}
	}
	return ckpt, ckptBytes, recs, logBytes, nil
}

// readSegment parses every intact frame of a segment and returns the records
// with an LSN above after, the length of their frames, headers included, and
// the framing error that terminated the scan (nil when the segment ends
// cleanly).
func readSegment(st Store, seg, after uint64) ([]Record, int64, error) {
	b, err := st.Read(seg)
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	var n int64
	for rest := b; len(rest) > 0; {
		body, next, ferr := unframe(rest)
		if ferr != nil {
			return recs, n, ferr
		}
		r, derr := decodeRecord(body)
		if derr != nil {
			return recs, n, derr
		}
		if r.LSN > after {
			recs = append(recs, r)
			n += int64(len(rest) - len(next))
		}
		rest = next
	}
	return recs, n, nil
}

// ReplayCost returns the virtual time to charge for replaying the given
// volume of recovery work (checkpoint load plus log replay).
func (l *Log) ReplayCost(records int, logBytes int64, ckptBytes int) sim.Cycles {
	c := l.cfg.ReplayPerRecord*sim.Cycles(records) +
		sim.LineCost(l.cfg.AppendPerLine, int(logBytes)) +
		sim.LineCost(l.cfg.AppendPerLine, ckptBytes)
	return c
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
