// Package ncc models the non-cache-coherent memory system that Hare targets:
// a shared DRAM holding the buffer cache, and per-core private write-back
// caches that are NOT kept coherent by hardware.
//
// Reads through a private cache may return stale data unless software has
// explicitly invalidated the cached copies; writes are not visible to other
// cores until software explicitly writes them back to DRAM. Hare's client
// library builds close-to-open consistency on top of these two primitives
// (invalidate on open, write back on close/fsync).
package ncc

import (
	"fmt"
	"sync"
)

// BlockID names one block of the shared buffer cache. Block 0 is a valid
// block; InvalidBlock is used as a sentinel.
type BlockID uint64

// InvalidBlock is the sentinel "no block" value.
const InvalidBlock BlockID = ^BlockID(0)

// DRAM is the shared memory visible to all cores. It is divided into
// fixed-size blocks; Hare's file servers hand out blocks to files and client
// libraries read and write them directly (through their private caches).
type DRAM struct {
	blockSize int
	blocks    []dramBlock
}

// dramBlock holds a block's leading bytes up to the highest line ever
// written to it; the block reads as zeros past len(data) (DESIGN.md §8, "How
// a block is held").
type dramBlock struct {
	mu   sync.Mutex
	data []byte
}

// readSparse copies a block held as its leading bytes data into dst from off,
// zero-filling what lies past data, and returns the bytes up to the block's
// end that fit in dst.
func readSparse(data []byte, size, off int, dst []byte) int {
	n := min(size-off, len(dst))
	if n <= 0 {
		return 0
	}
	c := 0
	if off < len(data) {
		c = copy(dst[:n], data[off:])
	}
	clear(dst[c:n])
	return n
}

// extend returns data lengthened to hold end bytes, rounded up to a line and
// never past size, allocating at most once; the bytes it adds read as zero.
func extend(data []byte, end, size int) []byte {
	if end <= len(data) {
		return data
	}
	end = min((end+LineSize-1)/LineSize*LineSize, size)
	if end > cap(data) {
		grown := make([]byte, end)
		copy(grown, data)
		return grown
	}
	old := len(data)
	data = data[:end]
	clear(data[old:])
	return data
}

// NewDRAM creates a shared memory with numBlocks blocks of blockSize bytes.
func NewDRAM(numBlocks int, blockSize int) *DRAM {
	if numBlocks <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("ncc: invalid DRAM geometry %d x %d", numBlocks, blockSize))
	}
	return &DRAM{
		blockSize: blockSize,
		blocks:    make([]dramBlock, numBlocks),
	}
}

// BlockSize returns the size of each block in bytes.
func (d *DRAM) BlockSize() int { return d.blockSize }

// NumBlocks returns the number of blocks in the shared memory.
func (d *DRAM) NumBlocks() int { return len(d.blocks) }

// validate panics on out-of-range block ids: this indicates a file system
// bug, equivalent to a wild pointer on the real hardware.
func (d *DRAM) validate(b BlockID) {
	if int(b) >= len(d.blocks) {
		panic(fmt.Sprintf("ncc: access to invalid block %d (of %d)", b, len(d.blocks)))
	}
}

// read copies block contents into dst starting at off; returns bytes copied.
func (d *DRAM) read(b BlockID, off int, dst []byte) int {
	d.validate(b)
	blk := &d.blocks[b]
	blk.mu.Lock()
	defer blk.mu.Unlock()
	return readSparse(blk.data, d.blockSize, off, dst)
}

// write copies src into the block at off; returns bytes copied.
func (d *DRAM) write(b BlockID, off int, src []byte) int {
	d.validate(b)
	blk := &d.blocks[b]
	blk.mu.Lock()
	defer blk.mu.Unlock()
	n := min(d.blockSize-off, len(src))
	if n <= 0 {
		return 0
	}
	blk.data = extend(blk.data, off+n, d.blockSize)
	return copy(blk.data[off:], src)
}

// load returns block b's present bytes in buf's backing array (a private
// cache's miss filling a frame).
func (d *DRAM) load(b BlockID, buf []byte) []byte {
	d.validate(b)
	blk := &d.blocks[b]
	blk.mu.Lock()
	defer blk.mu.Unlock()
	buf = extend(buf[:0], len(blk.data), d.blockSize)
	copy(buf, blk.data)
	return buf
}

// store makes block b hold exactly src, zeros past it (a full-block
// writeback of a frame).
func (d *DRAM) store(b BlockID, src []byte) {
	d.validate(b)
	blk := &d.blocks[b]
	blk.mu.Lock()
	defer blk.mu.Unlock()
	blk.data = extend(blk.data[:0], len(src), d.blockSize)
	copy(blk.data, src)
}

// zero clears a block's contents (used when a freed block is reallocated).
// A block that has been written keeps its backing array, truncated (extend
// zero-fills what a later write exposes again): it is the simulated memory
// itself, bounded by the DRAM's configured size, and the block's next owner
// is about to write it.
func (d *DRAM) zero(b BlockID) {
	d.validate(b)
	blk := &d.blocks[b]
	blk.mu.Lock()
	defer blk.mu.Unlock()
	blk.data = blk.data[:0]
}

// ReadDirect reads directly from DRAM, bypassing any private cache. It is
// used by tests and by the unfs baseline's single server.
func (d *DRAM) ReadDirect(b BlockID, off int, dst []byte) int { return d.read(b, off, dst) }

// WriteDirect writes directly to DRAM, bypassing any private cache.
func (d *DRAM) WriteDirect(b BlockID, off int, src []byte) int { return d.write(b, off, src) }

// ZeroBlock clears the block; file servers call this when a block moves from
// one file to another so freed data never leaks.
func (d *DRAM) ZeroBlock(b BlockID) { d.zero(b) }
