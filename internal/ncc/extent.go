package ncc

import "sort"

// Extent is a run of Count consecutive buffer-cache blocks starting at Start.
// File block maps and wire messages use extents so their size scales with the
// file's fragmentation rather than with its length: a freshly created file
// whose blocks came off a partition free list is typically one or two runs no
// matter how many blocks it holds.
type Extent struct {
	Start BlockID
	Count uint64
}

// End returns the first block after the extent (half-open [Start, End)).
func (e Extent) End() BlockID { return e.Start + BlockID(e.Count) }

// ExtentList is an ordered block map held as extents. Appending preserves the
// file's block order (extents may be non-monotonic in block-id space when the
// allocator's free list is fragmented); At gives O(log runs) random access
// via a cumulative index.
type ExtentList struct {
	runs []Extent
	// cum[i] is the total number of blocks in runs[:i+1].
	cum []uint64
}

// Reset empties the list, keeping capacity.
func (l *ExtentList) Reset() {
	l.runs = l.runs[:0]
	l.cum = l.cum[:0]
}

// Len returns the total number of blocks mapped.
func (l *ExtentList) Len() int {
	if len(l.cum) == 0 {
		return 0
	}
	return int(l.cum[len(l.cum)-1])
}

// NumRuns returns the number of extents.
func (l *ExtentList) NumRuns() int { return len(l.runs) }

// Cap returns the number of extents the list has room for, which Reset
// keeps.
func (l *ExtentList) Cap() int { return cap(l.runs) }

// Runs returns the underlying extents; callers must not modify them.
func (l *ExtentList) Runs() []Extent { return l.runs }

// Append adds one block to the end of the map, extending the last run when
// the block is its direct successor.
func (l *ExtentList) Append(b BlockID) {
	if n := len(l.runs); n > 0 && l.runs[n-1].End() == b {
		l.runs[n-1].Count++
		l.cum[n-1]++
		return
	}
	l.AppendRun(Extent{Start: b, Count: 1})
}

// AppendRun adds a whole extent to the end of the map.
func (l *ExtentList) AppendRun(e Extent) {
	if e.Count == 0 {
		return
	}
	var total uint64
	if len(l.cum) > 0 {
		total = l.cum[len(l.cum)-1]
	}
	if n := len(l.runs); n > 0 && l.runs[n-1].End() == e.Start {
		l.runs[n-1].Count += e.Count
		l.cum[n-1] += e.Count
		return
	}
	l.runs = append(l.runs, e)
	l.cum = append(l.cum, total+e.Count)
}

// At returns the i-th block of the map. It panics on out-of-range indices,
// mirroring slice indexing (an out-of-range file block index is a client
// bug).
func (l *ExtentList) At(i int) BlockID {
	idx := uint64(i)
	r := sort.Search(len(l.cum), func(j int) bool { return l.cum[j] > idx })
	if r == len(l.runs) {
		panic("ncc: extent list index out of range")
	}
	before := uint64(0)
	if r > 0 {
		before = l.cum[r-1]
	}
	return l.runs[r].Start + BlockID(idx-before)
}

// TailRuns returns the extents covering blocks [from, Len) — the tail a
// caller just learned about when the map grew — as the part of the run that
// holds block from and the runs after it, which are the list's own: callers
// must not modify them. head.Count is 0 when from is at or past the end.
func (l *ExtentList) TailRuns(from int) (head Extent, rest []Extent) {
	if from >= l.Len() {
		return Extent{}, nil
	}
	idx := uint64(from)
	r := sort.Search(len(l.cum), func(j int) bool { return l.cum[j] > idx })
	before := uint64(0)
	if r > 0 {
		before = l.cum[r-1]
	}
	skip := idx - before
	return Extent{Start: l.runs[r].Start + BlockID(skip), Count: l.runs[r].Count - skip}, l.runs[r+1:]
}

// NormalizeExtents sorts extents by start block and merges overlapping and
// adjacent runs into a canonical disjoint ascending form. Overlaps arise from
// repeated writes to the same file region; normalizing before writeback means
// no block is visited — or charged — twice. The input slice is reused.
func NormalizeExtents(exts []Extent) []Extent {
	if len(exts) <= 1 {
		return exts
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].Start < exts[j].Start })
	out := exts[:1]
	for _, e := range exts[1:] {
		last := &out[len(out)-1]
		if e.Start <= last.End() {
			if e.End() > last.End() {
				last.Count = uint64(e.End() - last.Start)
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// extentsContain reports whether b falls inside the normalized (disjoint,
// ascending) extents.
func extentsContain(exts []Extent, b BlockID) bool {
	i := sort.Search(len(exts), func(j int) bool { return exts[j].End() > b })
	return i < len(exts) && exts[i].Start <= b
}

// ExtentBlocks returns the total block count of the extents.
func ExtentBlocks(exts []Extent) int {
	total := 0
	for _, e := range exts {
		total += int(e.Count)
	}
	return total
}
