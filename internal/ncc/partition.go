package ncc

import (
	"fmt"
	"sync"

	"repro/internal/fsapi"
)

// Partition is the slice of the shared buffer cache owned by one file server.
// Each server allocates blocks for its files from its own partition's free
// list (the paper notes that stealing from other servers' partitions is
// possible but not implemented; this reproduction matches that).
//
// Blocks come off the partition in ascending order: the free list is a stack
// with the lowest block on top, so n allocations from a fresh partition are
// n consecutive ascending blocks and a file one server grows alone is one
// Extent. The rule survives reuse: Free pushes a returned map in reverse, so
// a freed file's run comes back as the same ascending run, and Reclaim (the
// rebuild behind recovery and promotion) refills the stack lowest on top.
// Files that grow side by side on one server still fragment: the next blocks
// go to whichever file asks next.
type Partition struct {
	mu sync.Mutex
	// free is the free-block stack; its top, free[len(free)-1], is the next
	// block Alloc hands out.
	free  []BlockID
	total int
	// lo and hi bound the block range this partition owns: [lo, hi).
	lo, hi BlockID
	dram   *DRAM
}

// PartitionDRAM splits the DRAM's blocks evenly into n partitions.
func PartitionDRAM(d *DRAM, n int) []*Partition {
	if n <= 0 {
		panic(fmt.Sprintf("ncc: cannot partition DRAM into %d parts", n))
	}
	parts := make([]*Partition, n)
	per := d.NumBlocks() / n
	for i := 0; i < n; i++ {
		start := i * per
		end := start + per
		if i == n-1 {
			end = d.NumBlocks()
		}
		p := &Partition{dram: d, total: end - start, lo: BlockID(start), hi: BlockID(end)}
		for b := end - 1; b >= start; b-- {
			p.free = append(p.free, BlockID(b))
		}
		parts[i] = p
	}
	return parts
}

// Alloc removes and returns one free block, zeroed. It returns ENOSPC when
// the partition is exhausted.
func (p *Partition) Alloc() (BlockID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return InvalidBlock, fsapi.ENOSPC
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.dram.ZeroBlock(b)
	return b, nil
}

// Free moves every block of m back to the partition's free list and leaves
// m empty. It pushes them in reverse, so the next m.Len() allocations hand
// them out in m's order: a freed file's ascending run comes back as the same
// run.
func (p *Partition) Free(m *BlockMap) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.more != nil {
		for i := len(*m.more) - 1; i >= 0; i-- {
			p.push((*m.more)[i])
		}
	}
	p.push(m.first)
	*m = BlockMap{}
}

// push puts run e on the free stack, its first block on top.
func (p *Partition) push(e Extent) {
	for j := e.Count; j > 0; j-- {
		p.free = append(p.free, e.Start+BlockID(j-1))
	}
}

// FreeCount returns the number of free blocks remaining.
func (p *Partition) FreeCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Total returns the total number of blocks in the partition.
func (p *Partition) Total() int { return p.total }

// Range returns the half-open block range [lo, hi) the partition owns.
func (p *Partition) Range() (lo, hi BlockID) { return p.lo, p.hi }

// Reclaim rebuilds the free list after crash recovery: every block in the
// partition's range that no run of inUse covers becomes free again, without
// zeroing anything (recovered files still own their contents). The in-use
// runs are the recovering server's replayed block maps; Reclaim sorts inUse
// in place. The stack is refilled highest first, so the gaps between in-use
// blocks come back out in ascending order.
func (p *Partition) Reclaim(inUse []Extent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	inUse = NormalizeExtents(inUse)
	p.free = p.free[:0]
	i := len(inUse) - 1
	for b := p.hi; b > p.lo; b-- {
		for i >= 0 && inUse[i].Start >= b {
			i--
		}
		if i < 0 || b-1-inUse[i].Start >= BlockID(inUse[i].Count) {
			p.free = append(p.free, b-1)
		}
	}
}
