package shadow

import (
	"slices"
	"sort"
)

// Run is a contiguous range of block ids [Start, Start+Count). It mirrors
// ncc.Extent without importing ncc, so that package's own tests can use this
// shadow without an import cycle.
type Run struct {
	Start uint64
	Count uint64
}

// NormalizeRuns sorts a copy of runs and merges overlapping or adjacent
// ranges, the reference behaviour for extent normalization.
func NormalizeRuns(runs []Run) []Run {
	if len(runs) == 0 {
		return nil
	}
	sorted := append([]Run(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := sorted[:1]
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.Start+last.Count {
			if end := r.Start + r.Count; end > last.Start+last.Count {
				last.Count = end - last.Start
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// RunsContain reports whether block b falls inside any of the runs.
func RunsContain(runs []Run, b uint64) bool {
	for _, r := range runs {
		if b >= r.Start && b < r.Start+r.Count {
			return true
		}
	}
	return false
}

// Blocks models a private cache over shared DRAM as flat per-block buffers
// with per-line dirty bits: the reference model for the zero-waste data path
// (dirty-line writeback, ranged invalidation). All blocks are blockSize
// bytes, split into lines of lineSize bytes.
type Blocks struct {
	blockSize int
	lineSize  int
	dram      map[uint64][]byte
	priv      map[uint64][]byte
	dirty     map[uint64][]bool
}

// NewBlocks returns an empty shadow with the given geometry.
func NewBlocks(blockSize, lineSize int) *Blocks {
	return &Blocks{
		blockSize: blockSize,
		lineSize:  lineSize,
		dram:      make(map[uint64][]byte),
		priv:      make(map[uint64][]byte),
		dirty:     make(map[uint64][]bool),
	}
}

// DRAM returns block b's shared-memory contents, materializing zeroes on
// first touch. The returned slice is the shadow's own buffer.
func (s *Blocks) DRAM(b uint64) []byte {
	if buf, ok := s.dram[b]; ok {
		return buf
	}
	buf := make([]byte, s.blockSize)
	s.dram[b] = buf
	return buf
}

// Resident fetches block b into the shadow private cache if needed and
// returns the cached copy.
func (s *Blocks) Resident(b uint64) []byte {
	if buf, ok := s.priv[b]; ok {
		return buf
	}
	buf := make([]byte, s.blockSize)
	copy(buf, s.DRAM(b))
	s.priv[b] = buf
	s.dirty[b] = make([]bool, (s.blockSize+s.lineSize-1)/s.lineSize)
	return buf
}

// Write stores src at off within block b through the private cache, marking
// the covered lines dirty.
func (s *Blocks) Write(b uint64, off int, src []byte) {
	buf := s.Resident(b)
	n := copy(buf[off:], src)
	if n == 0 {
		return
	}
	for l := off / s.lineSize; l <= (off+n-1)/s.lineSize; l++ {
		s.dirty[b][l] = true
	}
}

// WriteDRAM stores src directly into shared memory (another core's
// writeback), bypassing the private cache.
func (s *Blocks) WriteDRAM(b uint64, off int, src []byte) {
	copy(s.DRAM(b)[off:], src)
}

// Writeback flushes the dirty lines of resident blocks covered by runs (any
// order, may overlap) and returns the number of lines moved.
func (s *Blocks) Writeback(runs []Run) int {
	norm := NormalizeRuns(runs)
	moved := 0
	for b, buf := range s.priv {
		if !RunsContain(norm, b) {
			continue
		}
		dram := s.DRAM(b)
		for l, d := range s.dirty[b] {
			if !d {
				continue
			}
			off := l * s.lineSize
			end := off + s.lineSize
			if end > s.blockSize {
				end = s.blockSize
			}
			copy(dram[off:end], buf[off:end])
			s.dirty[b][l] = false
			moved++
		}
	}
	return moved
}

// WritebackFull flushes every resident block covered by runs that has a
// dirty line whole, clean lines included, and returns the blocks flushed.
func (s *Blocks) WritebackFull(runs []Run) int {
	norm := NormalizeRuns(runs)
	flushed := 0
	for b, buf := range s.priv {
		if !RunsContain(norm, b) || !slices.Contains(s.dirty[b], true) {
			continue
		}
		copy(s.DRAM(b), buf)
		clear(s.dirty[b])
		flushed++
	}
	return flushed
}

// Invalidate drops resident blocks covered by runs from the private cache,
// discarding their dirty lines, and returns how many it dropped.
func (s *Blocks) Invalidate(runs []Run) int {
	norm := NormalizeRuns(runs)
	dropped := 0
	for b := range s.priv {
		if RunsContain(norm, b) {
			delete(s.priv, b)
			delete(s.dirty, b)
			dropped++
		}
	}
	return dropped
}

// Cached reports whether block b is resident in the private cache.
func (s *Blocks) Cached(b uint64) bool {
	_, ok := s.priv[b]
	return ok
}

// Covered returns how many resident blocks runs cover.
func (s *Blocks) Covered(runs []Run) int {
	norm := NormalizeRuns(runs)
	n := 0
	for b := range s.priv {
		if RunsContain(norm, b) {
			n++
		}
	}
	return n
}
