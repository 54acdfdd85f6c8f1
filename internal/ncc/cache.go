package ncc

import "sync"

// LineSize is the coherence granularity of the software-managed data path:
// writeback and invalidation costs are charged per 64-byte line, matching the
// hardware cache line the paper's cost figures are expressed in.
const LineSize = 64

// PrivateCache models one core's private (L1/L2) cache over the shared DRAM.
// It is a write-back cache with no hardware coherence: a cached copy can be
// stale with respect to DRAM, and dirty data is invisible to other cores
// until written back.
//
// A PrivateCache may be used by several simulated entities pinned to the same
// core, so it is internally synchronized; it is still "private" in the sense
// that no other core's cache observes its contents.
type PrivateCache struct {
	dram *DRAM

	mu    sync.Mutex
	lines map[BlockID]*cachedBlock
	// free holds frames dropped by invalidation for the next miss, at most
	// frameFreeCap of them (that many blocks of memory per core).
	free []*cachedBlock

	// statistics
	hits       uint64
	misses     uint64
	writebacks uint64
	invalidns  uint64
	// Data-movement counters for the zero-waste data path (DESIGN.md §8):
	// 64-byte lines actually flushed to DRAM, lines dropped by invalidation,
	// and lines a version-matched open did NOT have to drop.
	linesWB      uint64
	linesInv     uint64
	linesSkipped uint64
}

// cachedBlock is one resident block copy, held like a DRAM block as its
// leading bytes with zeros implied past them. dirty is the per-64-byte-line
// dirty bitmap (bit i = line i modified since the last writeback); a block is
// dirty iff any bit is set.
type cachedBlock struct {
	data  []byte
	dirty []uint64
}

// frameFreeCap bounds a cache's free list of frames: create/write/close/
// unlink churn drops a frame per file and misses on the next, while a
// wholesale invalidation of a large file must not keep its frames alive.
const frameFreeCap = 64

// numLines returns how many 64-byte lines a block spans: every line count
// the cache keeps is per block, whatever length its frame has.
func (c *PrivateCache) numLines() int { return (c.dram.blockSize + LineSize - 1) / LineSize }

// isDirty reports whether any line is dirty.
func (cb *cachedBlock) isDirty() bool {
	for _, w := range cb.dirty {
		if w != 0 {
			return true
		}
	}
	return false
}

// markLines sets the dirty bits for the lines spanning [off, off+n) of a
// block of numLines lines.
func (cb *cachedBlock) markLines(off, n, numLines int) {
	if n <= 0 {
		return
	}
	if cb.dirty == nil {
		cb.dirty = make([]uint64, (numLines+63)/64)
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for l := first; l <= last; l++ {
		cb.dirty[l/64] |= 1 << (uint(l) % 64)
	}
}

// dirtyLineCount returns the number of dirty lines.
func (cb *cachedBlock) dirtyLineCount() int {
	n := 0
	for _, w := range cb.dirty {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// clearDirty marks every line clean.
func (cb *cachedBlock) clearDirty() {
	for i := range cb.dirty {
		cb.dirty[i] = 0
	}
}

// NewPrivateCache creates an empty private cache over the given DRAM.
func NewPrivateCache(d *DRAM) *PrivateCache {
	return &PrivateCache{
		dram:  d,
		lines: make(map[BlockID]*cachedBlock),
	}
}

// DRAM returns the shared memory behind this cache.
func (c *PrivateCache) DRAM() *DRAM { return c.dram }

// fetch returns the cached copy of b, loading it from DRAM on a miss.
// The caller must hold c.mu.
func (c *PrivateCache) fetch(b BlockID) *cachedBlock {
	if cb, ok := c.lines[b]; ok {
		c.hits++
		return cb
	}
	c.misses++
	var cb *cachedBlock
	if n := len(c.free); n > 0 {
		cb = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		cb = &cachedBlock{}
	}
	// The frame takes the block's present bytes and ends where they do:
	// nothing of a recycled frame's previous block shows.
	cb.data = c.dram.load(b, cb.data)
	c.lines[b] = cb
	return cb
}

// drop removes block b's frame cb from the cache, discarding dirty data, and
// keeps the frame for the next miss. The caller must hold c.mu.
func (c *PrivateCache) drop(b BlockID, cb *cachedBlock) {
	c.linesInv += uint64(c.numLines())
	delete(c.lines, b)
	if len(c.free) < frameFreeCap {
		cb.clearDirty()
		c.free = append(c.free, cb)
	}
}

// Read copies data from the (possibly stale) cached copy of block b starting
// at off into dst. It returns the number of bytes copied and whether the
// access hit in the private cache (misses are charged DRAM latency by the
// caller).
func (c *PrivateCache) Read(b BlockID, off int, dst []byte) (n int, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, hit = c.lines[b]
	cb := c.fetch(b)
	return readSparse(cb.data, c.dram.blockSize, off, dst), hit
}

// Write copies src into the cached copy of block b at off, marking the
// touched 64-byte lines dirty. The data is NOT visible in DRAM until
// Writeback. Returns bytes written and whether the block was already cached.
func (c *PrivateCache) Write(b BlockID, off int, src []byte) (n int, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, hit = c.lines[b]
	cb := c.fetch(b)
	n = min(c.dram.blockSize-off, len(src))
	if n <= 0 {
		return 0, hit
	}
	cb.data = extend(cb.data, off+n, c.dram.blockSize)
	copy(cb.data[off:], src)
	cb.markLines(off, n, c.numLines())
	return n, hit
}

// Invalidate drops any cached copies of the given blocks, discarding dirty
// data. Hare calls this on open() so subsequent reads observe the latest
// data written back by other cores. It returns the number of blocks that
// were actually cached (for cost accounting).
func (c *PrivateCache) Invalidate(blocks []BlockID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, b := range blocks {
		if cb, ok := c.lines[b]; ok {
			c.drop(b, cb)
			dropped++
		}
	}
	c.invalidns += uint64(dropped)
	return dropped
}

// forEachCovered visits every resident block covered by the extents,
// driving the iteration from whichever side is smaller: block-by-block map
// lookups for a small file against a big cache, or one walk of the resident
// set range-checked against the extents for a big file against a sparse
// cache. Either way no per-block []BlockID slice is materialized. The
// extents may arrive in file order (unsorted, e.g. descending under LIFO
// allocation); the resident-walk branch sorts a scratch copy so its binary
// search is valid. fn may delete the visited entry.
func (c *PrivateCache) forEachCovered(exts []Extent, fn func(b BlockID, cb *cachedBlock)) {
	if ExtentBlocks(exts) <= len(c.lines) {
		for _, e := range exts {
			for b := e.Start; b < e.End(); b++ {
				if cb, ok := c.lines[b]; ok {
					fn(b, cb)
				}
			}
		}
		return
	}
	norm := NormalizeExtents(append([]Extent(nil), exts...))
	for b, cb := range c.lines {
		if extentsContain(norm, b) {
			fn(b, cb)
		}
	}
}

// InvalidateExtents drops cached copies of every block in the (normalized)
// extents, discarding dirty data. It returns the number of blocks dropped.
func (c *PrivateCache) InvalidateExtents(exts []Extent) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	c.forEachCovered(exts, func(b BlockID, cb *cachedBlock) {
		c.drop(b, cb)
		dropped++
	})
	c.invalidns += uint64(dropped)
	return dropped
}

// Writeback flushes dirty cached copies of the given blocks to DRAM in full,
// leaving clean copies in the cache. It returns the number of blocks flushed.
func (c *PrivateCache) Writeback(blocks []BlockID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	flushed := 0
	for _, b := range blocks {
		cb, ok := c.lines[b]
		if !ok || !cb.isDirty() {
			continue
		}
		c.dram.store(b, cb.data)
		cb.clearDirty()
		c.linesWB += uint64(c.numLines())
		flushed++
	}
	c.writebacks += uint64(flushed)
	return flushed
}

// WritebackExtents flushes dirty cached blocks covered by the (normalized)
// extents to DRAM, walking the resident set once instead of doing a map
// lookup per block. With dirtyLinesOnly set, only the 64-byte lines actually
// written since the last writeback move (and untouched lines of the same
// block are left alone in DRAM); otherwise each dirty block is flushed in
// full, matching Writeback. It returns the blocks flushed and the lines
// moved — the quantity the data-path cost model charges for.
func (c *PrivateCache) WritebackExtents(exts []Extent, dirtyLinesOnly bool) (blocks, lines int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forEachCovered(exts, func(b BlockID, cb *cachedBlock) {
		if !cb.isDirty() {
			return
		}
		if dirtyLinesOnly {
			lines += c.flushDirtyLines(b, cb)
		} else {
			c.dram.store(b, cb.data)
			lines += c.numLines()
		}
		cb.clearDirty()
		blocks++
	})
	c.writebacks += uint64(blocks)
	c.linesWB += uint64(lines)
	return blocks, lines
}

// flushDirtyLines writes only the dirty lines of cb to DRAM and returns how
// many moved. The caller must hold c.mu and clear the dirty bits afterwards.
// The lines go highest first, so the DRAM block grows once, by the first.
func (c *PrivateCache) flushDirtyLines(b BlockID, cb *cachedBlock) int {
	moved := 0
	for l := (len(cb.data)+LineSize-1)/LineSize - 1; l >= 0; l-- {
		if cb.dirty[l/64]&(1<<(uint(l)%64)) == 0 {
			continue
		}
		off := l * LineSize
		end := off + LineSize
		if end > len(cb.data) {
			end = len(cb.data)
		}
		c.dram.write(b, off, cb.data[off:end])
		moved++
	}
	return moved
}

// NoteVersionSkip records that an open's invalidation was skipped because the
// server-side data version matched the client's cached copy, and returns the
// number of resident lines the skip preserved (for the lines-skipped
// economy counter). It charges nothing and moves nothing.
func (c *PrivateCache) NoteVersionSkip(exts []Extent) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	lines := 0
	c.forEachCovered(exts, func(BlockID, *cachedBlock) {
		lines += c.numLines()
	})
	c.linesSkipped += uint64(lines)
	return lines
}

// InvalidateAll drops the entire cache contents (used when a simulated
// process migrates or when resetting between experiments).
func (c *PrivateCache) InvalidateAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.lines)
	c.linesInv += uint64(n * c.numLines())
	c.lines = make(map[BlockID]*cachedBlock)
	c.invalidns += uint64(n)
	return n
}

// WritebackAll flushes every dirty block to DRAM.
func (c *PrivateCache) WritebackAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	flushed := 0
	for b, cb := range c.lines {
		if cb.isDirty() {
			c.dram.store(b, cb.data)
			cb.clearDirty()
			c.linesWB += uint64(c.numLines())
			flushed++
		}
	}
	c.writebacks += uint64(flushed)
	return flushed
}

// Dirty reports whether block b has dirty (not yet written back) data.
func (c *PrivateCache) Dirty(b BlockID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cb, ok := c.lines[b]
	return ok && cb.isDirty()
}

// DirtyLines returns the number of dirty 64-byte lines in block b.
func (c *PrivateCache) DirtyLines(b BlockID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cb, ok := c.lines[b]
	if !ok {
		return 0
	}
	return cb.dirtyLineCount()
}

// Cached reports whether block b currently has a cached copy.
func (c *PrivateCache) Cached(b BlockID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.lines[b]
	return ok
}

// CacheStats is a snapshot of a private cache's counters.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64
	Invalidated uint64
	Resident    int
	// Line-granular data movement (DESIGN.md §8).
	LinesWB      uint64 // 64-byte lines flushed to DRAM
	LinesInv     uint64 // resident lines dropped by invalidation
	LinesSkipped uint64 // resident lines preserved by version-matched opens
}

// Stats returns a snapshot of the cache counters.
func (c *PrivateCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Writebacks:   c.writebacks,
		Invalidated:  c.invalidns,
		Resident:     len(c.lines),
		LinesWB:      c.linesWB,
		LinesInv:     c.linesInv,
		LinesSkipped: c.linesSkipped,
	}
}
