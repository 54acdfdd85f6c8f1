package repl

import (
	"bytes"
	"slices"
	"strings"

	"repro/internal/wal"
)

// maxStash bounds how many out-of-order batches a follower buffers while a
// delayed batch is still in flight. Overflow abandons reordering and asks
// the primary for a rebase snapshot instead — the same path that handles a
// genuinely lost message.
const maxStash = 32

// Follower is the warm standby of one primary: a wal.Image that ingests the
// primary's shipped WAL batches in LSN order and converts itself into a
// wal.Checkpoint for promotion. Recovery replays its log into the same
// image type, so promotion lands on exactly the state a replay of the acked
// prefix would have produced.
//
// A Follower is confined to its owning server's replication goroutine; it
// needs no locking.
type Follower struct {
	primary int

	sealed bool
	next   uint64 // next LSN expected; durable horizon is next-1

	img *wal.Image

	// stash holds out-of-order batches (keyed by base LSN) until the gap
	// in front of them arrives.
	stash map[uint64][]wal.Record
}

// NewFollower builds an empty replica of the given primary, expecting the
// log from LSN 1 (a replica created mid-life is populated by a rebase
// snapshot instead).
func NewFollower(primary, blockSize int) *Follower {
	return &Follower{
		primary: primary,
		next:    1,
		img:     wal.NewImage(blockSize),
		stash:   make(map[uint64][]wal.Record),
	}
}

// Primary returns the id of the server this replica shadows.
func (f *Follower) Primary() int { return f.primary }

// Durable returns the highest LSN applied contiguously.
func (f *Follower) Durable() uint64 { return f.next - 1 }

// Sealed reports whether the replica stopped ingesting for promotion.
func (f *Follower) Sealed() bool { return f.sealed }

// Seal stops ingestion. Idempotent: a retried failover seals again and gets
// the same horizon and snapshot.
func (f *Follower) Seal() { f.sealed = true }

// Ingest applies a shipped batch whose first record has LSN base. It
// returns needSync=true when the replica cannot make progress from batches
// alone — a gap it could not buffer — and the primary must ship a rebase
// snapshot. Re-ingesting an already-applied batch is a no-op (records are
// state assignments and the LSN window filters them before apply), so
// duplicate ships after a primary recovery are harmless.
//
// recs, and everything its records point at, belong to the caller again when
// Ingest returns (they are decoded in place in a recycled buffer,
// wal.DecodeRecordsInto): the replica copies what it keeps — a batch it
// stashes, a name it stores an entry under, a block list, file bytes, an
// epoch's map — and nothing else.
func (f *Follower) Ingest(base uint64, recs []wal.Record) (needSync bool) {
	if f.sealed || len(recs) == 0 {
		return false
	}
	if base+uint64(len(recs)) <= f.next {
		return false // entirely below the horizon: already applied
	}
	if base > f.next {
		// A batch from the future: an earlier batch has not arrived (a
		// shipper that waits for each ack sends none). Buffer it unless
		// the stash says the gap is never going to fill.
		if len(f.stash) >= maxStash {
			f.stash = make(map[uint64][]wal.Record)
			return true
		}
		f.stash[base] = cloneRecords(recs)
		return false
	}
	f.applyFrom(base, recs)
	// The arrival may have filled the gap in front of stashed batches.
	for {
		sbase, ok := f.popStash()
		if !ok {
			return false
		}
		f.applyFrom(sbase, f.stashTake(sbase))
	}
}

// popStash finds a stashed batch that now overlaps the horizon.
func (f *Follower) popStash() (uint64, bool) {
	for base, recs := range f.stash {
		if base <= f.next && base+uint64(len(recs)) > f.next {
			return base, true
		}
		if base+uint64(len(recs)) <= f.next {
			delete(f.stash, base) // obsolete: fully below the horizon
		}
	}
	return 0, false
}

func (f *Follower) stashTake(base uint64) []wal.Record {
	recs := f.stash[base]
	delete(f.stash, base)
	return recs
}

// cloneRecords copies a batch, and all its records point at, for the stash.
func cloneRecords(recs []wal.Record) []wal.Record {
	out := slices.Clone(recs)
	for i := range out {
		r := &out[i]
		r.Name = strings.Clone(r.Name)
		r.Blocks = slices.Clone(r.Blocks)
		r.Data = bytes.Clone(r.Data)
	}
	return out
}

// applyFrom applies the portion of recs above the current horizon.
func (f *Follower) applyFrom(base uint64, recs []wal.Record) {
	for i, r := range recs {
		lsn := base + uint64(i)
		if lsn < f.next {
			continue
		}
		f.img.Apply(r)
		f.next = lsn + 1
	}
}

// Rebase replaces the replica's state with a snapshot covering the log
// through lsn. Stale stashed batches below the new horizon are dropped.
func (f *Follower) Rebase(c *wal.Checkpoint, lsn uint64) {
	if f.sealed {
		return
	}
	f.img.Load(c)
	f.next = lsn + 1
	for base, recs := range f.stash {
		if base+uint64(len(recs)) <= f.next {
			delete(f.stash, base)
		}
	}
}

// Snapshot converts the replica into a checkpoint of the primary's durable
// state at the replica's horizon (wal.Image.Checkpoint), which the server's
// loadCheckpoint installs unmodified at promotion.
func (f *Follower) Snapshot() *wal.Checkpoint {
	c := f.img.Checkpoint()
	c.LSN = f.Durable()
	return c
}
