package repl

import (
	"bytes"
	"slices"
	"sort"
	"strings"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/wal"
)

// maxStash bounds how many out-of-order batches a follower buffers while a
// delayed batch is still in flight. Overflow abandons reordering and asks
// the primary for a rebase snapshot instead — the same path that handles a
// genuinely lost message.
const maxStash = 32

// fnode is the follower's shadow of one primary inode. It mirrors exactly
// the fields the server's log replay reconstructs; volatile runtime state
// (descriptor counts, versions, rmdir marks) is absent by construction
// because it is never logged.
type fnode struct {
	local  uint64
	ftype  fsapi.FileType
	mode   fsapi.Mode
	size   int64
	nlink  int32
	dist   bool
	blocks []uint64
}

// fent is one shadow directory entry.
type fent struct {
	target proto.InodeID
	ftype  fsapi.FileType
	dist   bool
}

// Follower is the warm standby of one primary: a state machine that ingests
// the primary's shipped WAL batches and can convert itself into a
// wal.Checkpoint for promotion. Its apply rules deliberately mirror the
// server's own replay (durability.go applyRecord) — promotion must land on
// exactly the state a WAL replay of the acked prefix would have produced.
//
// A Follower is confined to its owning server's replication goroutine; it
// needs no locking.
type Follower struct {
	primary   int
	blockSize int

	sealed bool
	next   uint64 // next LSN expected; durable horizon is next-1

	nextIno uint64
	epoch   uint64
	pmap    []byte

	inodes map[uint64]*fnode
	dirs   map[proto.InodeID]map[string]fent
	dead   map[proto.InodeID]bool
	// chunks shadows the primary's DRAM partition: block id → contents.
	// Only blocks touched by server-path writes have entries; absent
	// blocks read as zeros, matching the allocator's zero-on-hand-over.
	chunks map[uint64][]byte

	// stash holds out-of-order batches (keyed by base LSN) until the gap
	// in front of them arrives.
	stash map[uint64][]wal.Record
}

// NewFollower builds an empty replica of the given primary, expecting the
// log from LSN 1 (a replica created mid-life is populated by a rebase
// snapshot instead).
func NewFollower(primary, blockSize int) *Follower {
	return &Follower{
		primary:   primary,
		blockSize: blockSize,
		next:      1,
		nextIno:   2,
		inodes:    make(map[uint64]*fnode),
		dirs:      make(map[proto.InodeID]map[string]fent),
		dead:      make(map[proto.InodeID]bool),
		chunks:    make(map[uint64][]byte),
		stash:     make(map[uint64][]wal.Record),
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
		// A batch from the future: an earlier batch is still in flight
		// (message jitter reorders one-way ships). Buffer it unless the
		// stash says the gap is never going to fill.
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
		f.apply(r)
		f.next = lsn + 1
	}
}

// Rebase replaces the replica's state with a snapshot covering the log
// through lsn. Stale stashed batches below the new horizon are dropped.
func (f *Follower) Rebase(c *wal.Checkpoint, lsn uint64) {
	if f.sealed {
		return
	}
	f.inodes = make(map[uint64]*fnode)
	f.dirs = make(map[proto.InodeID]map[string]fent)
	f.dead = make(map[proto.InodeID]bool)
	f.chunks = make(map[uint64][]byte)
	f.nextIno = 2
	if c.NextIno > f.nextIno {
		f.nextIno = c.NextIno
	}
	f.epoch = c.Epoch
	f.pmap = c.PlaceMap
	for i := range c.Inodes {
		snap := &c.Inodes[i]
		ino := &fnode{
			local:  snap.Local,
			ftype:  snap.Ftype,
			mode:   snap.Mode,
			size:   snap.Size,
			nlink:  snap.Nlink,
			dist:   snap.Dist,
			blocks: append([]uint64(nil), snap.Blocks...),
		}
		for j, b := range ino.blocks {
			if j < len(snap.Data) && snap.Data[j] != nil {
				f.chunks[b] = append([]byte(nil), snap.Data[j]...)
			}
		}
		f.inodes[ino.local] = ino
		if ino.local >= f.nextIno {
			f.nextIno = ino.local + 1
		}
	}
	for i := range c.Dirs {
		ds := &c.Dirs[i]
		sh := f.shard(ds.Dir)
		for _, ent := range ds.Ents {
			sh[ent.Name] = fent{target: ent.Target, ftype: ent.Ftype, dist: ent.Dist}
		}
	}
	for _, dir := range c.DeadDirs {
		f.dead[dir] = true
	}
	f.next = lsn + 1
	for base, recs := range f.stash {
		if base+uint64(len(recs)) <= f.next {
			delete(f.stash, base)
		}
	}
}

func (f *Follower) shard(dir proto.InodeID) map[string]fent {
	sh, ok := f.dirs[dir]
	if !ok {
		sh = make(map[string]fent)
		f.dirs[dir] = sh
	}
	return sh
}

// apply mirrors the server's applyRecord, assignment for assignment. The
// one structural difference: block contents land in the follower's shadow
// chunks instead of DRAM, because the primary's partition is not the
// follower's to write — promotion writes them back through the normal
// lost-memory checkpoint load.
func (f *Follower) apply(r wal.Record) {
	switch r.Type {
	case wal.RecInode:
		if r.Ino >= f.nextIno {
			f.nextIno = r.Ino + 1
		}
		if r.Ftype == fsapi.TypePipe {
			// Pipe state is volatile; the record only reserves the number.
			return
		}
		f.inodes[r.Ino] = &fnode{
			local: r.Ino,
			ftype: r.Ftype,
			mode:  r.Mode,
			nlink: r.Nlink,
			dist:  r.Dist,
		}
	case wal.RecNlink:
		ino, ok := f.inodes[r.Ino]
		if !ok {
			return
		}
		ino.nlink = r.Nlink
		if ino.nlink <= 0 {
			delete(f.inodes, r.Ino)
		}
	case wal.RecSize:
		if ino, ok := f.inodes[r.Ino]; ok && r.Size > ino.size {
			ino.size = r.Size
		}
	case wal.RecBlocks:
		ino, ok := f.inodes[r.Ino]
		if !ok {
			return
		}
		// Blocks newly entering this inode's list start zeroed (absent
		// from chunks = zeros), mirroring the replay-side zero-fill rule;
		// retained blocks keep their shipped contents. A list grows and
		// shrinks at its end, so past the common prefix there is next to
		// nothing to search.
		keep := 0
		for keep < len(ino.blocks) && keep < len(r.Blocks) && ino.blocks[keep] == r.Blocks[keep] {
			keep++
		}
		for _, b := range r.Blocks[keep:] {
			if !slices.Contains(ino.blocks[keep:], b) {
				delete(f.chunks, b)
			}
		}
		ino.blocks = append(ino.blocks[:0], r.Blocks...)
		ino.size = r.Size
	case wal.RecWrite:
		ino, ok := f.inodes[r.Ino]
		if !ok {
			return
		}
		f.writeData(ino, r.Off, r.Data)
		if end := r.Off + int64(len(r.Data)); end > ino.size {
			ino.size = end
		}
	case wal.RecAddMap:
		// Always under a copy of the name: assigning through an existing
		// key would make the map's key the caller's string.
		f.shard(r.Dir)[strings.Clone(r.Name)] = fent{target: r.Target, ftype: r.Ftype, dist: r.Dist}
	case wal.RecRmMap:
		if sh, ok := f.dirs[r.Dir]; ok {
			delete(sh, r.Name)
		}
	case wal.RecDirKill:
		delete(f.dirs, r.Dir)
		f.dead[r.Dir] = true
	case wal.RecEpoch:
		f.epoch = r.Epoch
		f.pmap = bytes.Clone(r.Data)
	}
}

// writeData lays file bytes into the shadow chunks, splitting across the
// inode's block list the way the server's writeData splits across DRAM.
func (f *Follower) writeData(ino *fnode, off int64, data []byte) {
	bs := int64(f.blockSize)
	for len(data) > 0 {
		idx := off / bs
		if idx >= int64(len(ino.blocks)) {
			return // write beyond the logged block list: nothing to hold it
		}
		b := ino.blocks[idx]
		boff := off % bs
		n := bs - boff
		if int64(len(data)) < n {
			n = int64(len(data))
		}
		chunk := f.chunks[b]
		if chunk == nil {
			chunk = make([]byte, f.blockSize)
			f.chunks[b] = chunk
		}
		copy(chunk[boff:boff+n], data[:n])
		off += n
		data = data[n:]
	}
}

// Snapshot converts the replica into a checkpoint of the primary's durable
// state at the replica's horizon, in the exact shape the server's own
// buildCheckpoint produces — loadCheckpoint installs it unmodified at
// promotion. Output is sorted for determinism.
func (f *Follower) Snapshot() *wal.Checkpoint {
	c := &wal.Checkpoint{
		LSN:      f.Durable(),
		NextIno:  f.nextIno,
		Epoch:    f.epoch,
		PlaceMap: f.pmap,
	}
	locals := make([]uint64, 0, len(f.inodes))
	for l := range f.inodes {
		locals = append(locals, l)
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })
	for _, l := range locals {
		ino := f.inodes[l]
		if ino.nlink <= 0 {
			continue
		}
		snap := wal.InodeSnap{
			Local:  ino.local,
			Ftype:  ino.ftype,
			Mode:   ino.mode,
			Size:   ino.size,
			Nlink:  ino.nlink,
			Dist:   ino.dist,
			Blocks: append([]uint64(nil), ino.blocks...),
		}
		for _, b := range ino.blocks {
			if chunk, ok := f.chunks[b]; ok {
				snap.Data = append(snap.Data, append([]byte(nil), chunk...))
			} else {
				snap.Data = append(snap.Data, nil)
			}
		}
		c.Inodes = append(c.Inodes, snap)
	}
	dirIDs := make([]proto.InodeID, 0, len(f.dirs))
	for dir := range f.dirs {
		dirIDs = append(dirIDs, dir)
	}
	sort.Slice(dirIDs, func(i, j int) bool { return inodeLess(dirIDs[i], dirIDs[j]) })
	for _, dir := range dirIDs {
		sh := f.dirs[dir]
		ds := wal.DirSnap{Dir: dir}
		names := make([]string, 0, len(sh))
		for name := range sh {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ent := sh[name]
			ds.Ents = append(ds.Ents, wal.DirEntSnap{
				Name:   name,
				Target: ent.target,
				Ftype:  ent.ftype,
				Dist:   ent.dist,
			})
		}
		c.Dirs = append(c.Dirs, ds)
	}
	for dir := range f.dead {
		c.DeadDirs = append(c.DeadDirs, dir)
	}
	sort.Slice(c.DeadDirs, func(i, j int) bool { return inodeLess(c.DeadDirs[i], c.DeadDirs[j]) })
	return c
}

func inodeLess(a, b proto.InodeID) bool {
	if a.Server != b.Server {
		return a.Server < b.Server
	}
	return a.Local < b.Local
}
