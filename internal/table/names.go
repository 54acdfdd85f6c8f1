package table

import "unsafe"

// Names is an append-only byte slab that backs the string keys of one small
// set of tables — a directory shard's names. It is Bonwick's slab (USENIX
// Summer 1994) for bytes, as Dense is for inodes: Keep copies a name into
// the chunk being filled and returns a view of it, so a table that stores
// the view costs one string header per key and no object of its own.
//
// Bytes once written are never written again: a view stays valid, and equal
// to the name it was kept as, for as long as anything holds it — the GC
// keeps its chunk alive — so there is no rule for lending or poisoning one.
//
// Chunks start at minChunk bytes (or the first name's size, rounded up to a
// power of two) and double up to maxChunk, so a directory of one name costs
// one object, as a cloned string does. The owner reports each name it stops
// storing to Drop. Once the chunks made since the last compaction hold more
// than 2 × live + maxChunk bytes, Drop compacts: it starts a fresh chunk the
// size of the last one (or of every live name, if larger), even when no name
// is live, and has the owner re-keep every name it still stores (Map.Rekey),
// after which the old chunks go with their last view. The zero value is an
// empty slab.
type Names struct {
	// chunk is the chunk being filled: len bytes of cap written.
	chunk []byte
	// held counts the bytes of the chunks made since the last compaction,
	// live the bytes of the names kept since then and not dropped.
	held, live int
}

// minChunk and maxChunk bound a chunk's size; a name longer than maxChunk
// gets a chunk of its own length.
const (
	minChunk = 32
	maxChunk = 4096
)

// Keep copies name into the slab and returns the copy, for a table to store
// as a key.
func (n *Names) Keep(name string) string {
	if name == "" {
		return ""
	}
	if len(name) > cap(n.chunk)-len(n.chunk) {
		n.fresh(len(name))
	}
	i := len(n.chunk)
	n.chunk = append(n.chunk, name...)
	n.live += len(name)
	return unsafe.String(&n.chunk[i], len(name))
}

// fresh starts a chunk of at least need bytes: twice the last one — from
// minChunk, up to maxChunk — or the first power of two that holds need,
// or need itself past maxChunk.
func (n *Names) fresh(need int) {
	size := minChunk
	if c := cap(n.chunk); c > 0 {
		size = min(2*c, maxChunk)
	}
	for size < need && size < maxChunk {
		size *= 2
	}
	size = max(size, need)
	n.chunk = make([]byte, 0, size)
	n.held += size
}

// Drop records that a name Keep returned is no longer stored: the caller
// has removed it from its tables. When that leaves the slab holding more
// than 2 × live + maxChunk bytes, Drop compacts: rekey must pass every name
// still stored through keep and store what keep returns in the name's place.
func (n *Names) Drop(name string, rekey func(keep func(string) string)) {
	n.live -= len(name)
	if n.held <= 2*n.live+maxChunk {
		return
	}
	// One chunk for all of them, no smaller than the last one: a churning
	// directory keeps its chunk size instead of doubling back up to it.
	size := max(n.live, min(cap(n.chunk), maxChunk))
	n.chunk, n.held, n.live = nil, 0, 0
	n.fresh(size)
	rekey(n.Keep)
}

// Held returns the bytes of the chunks made since the last compaction.
func (n *Names) Held() int { return n.held }
