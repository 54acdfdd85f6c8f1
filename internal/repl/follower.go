package repl

import "repro/internal/wal"

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
}

// NewFollower builds an empty replica of the given primary, expecting the
// log from LSN 1 (a replica created mid-life is populated by a rebase
// snapshot instead).
func NewFollower(primary, blockSize int) *Follower {
	return &Follower{
		primary: primary,
		next:    1,
		img:     wal.NewImage(blockSize),
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
// returns needSync=true when the batch starts beyond the horizon — a gap
// batches alone cannot close — and the primary must ship a rebase snapshot.
// Such a batch applies nothing: a shipper that waits for each ack never
// sends one, so the gap is a ship that was lost or refused, and the rebase
// is the path that already repairs those. Re-ingesting an already-applied
// batch is a no-op (records are state assignments and the LSN window
// filters them before apply), so duplicate ships after a primary recovery
// are harmless.
//
// recs, and everything its records point at, belong to the caller again when
// Ingest returns (they are decoded in place in a recycled buffer,
// wal.DecodeRecordsInto): the replica copies what it keeps — a name it
// stores an entry under, a block list, file bytes, an epoch's map — and
// nothing else.
func (f *Follower) Ingest(base uint64, recs []wal.Record) (needSync bool) {
	if f.sealed || len(recs) == 0 {
		return false
	}
	if base > f.next {
		return true
	}
	for i, r := range recs { // only the part above the horizon applies
		if lsn := base + uint64(i); lsn >= f.next {
			f.img.Apply(r)
			f.next = lsn + 1
		}
	}
	return false
}

// Rebase replaces the replica's state with a snapshot covering the log
// through lsn.
func (f *Follower) Rebase(c *wal.Checkpoint, lsn uint64) {
	if f.sealed {
		return
	}
	f.img.Load(c)
	f.next = lsn + 1
}

// Snapshot converts the replica into a checkpoint of the primary's durable
// state at the replica's horizon (wal.Image.Checkpoint), which the server's
// loadCheckpoint installs unmodified at promotion.
func (f *Follower) Snapshot() *wal.Checkpoint {
	c := f.img.Checkpoint()
	c.LSN = f.Durable()
	return c
}
