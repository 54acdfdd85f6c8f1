package ncc

// BlockMap is a file's ordered block map held as runs: the form a file server
// keeps an inode's blocks in, and a replayed image (wal.Image) keeps them in
// too. The first run lives in the map itself and any further runs behind one
// overflow pointer, so the map takes the 24 bytes of the slice header it
// replaced, and a map of one run — every file one server grows alone, since a
// Partition hands its blocks out ascending — never allocates however long it
// grows (ext4 keeps a file's first extents in its inode the same way). Len
// and At are O(1) for one run and O(runs) beyond it.
//
// Runs are maximal, none of them empty: no run starts where the one before
// it ends. The zero value is an empty map. A copy shares its overflow with
// the original, so a map is used through one place only.
type BlockMap struct {
	first Extent
	// more holds the runs after first. It is nil until the map first has
	// two runs, and keeps its capacity when the map shrinks.
	more *[]Extent
}

// Len returns the number of blocks mapped.
func (m *BlockMap) Len() int {
	n := m.first.Count
	if m.more != nil {
		for _, e := range *m.more {
			n += e.Count
		}
	}
	return int(n)
}

// At returns the block at position i. It panics on an out-of-range position,
// as slice indexing does.
func (m *BlockMap) At(i int) BlockID {
	idx := uint64(i)
	if idx < m.first.Count {
		return m.first.Start + BlockID(idx)
	}
	if i >= 0 && m.more != nil {
		idx -= m.first.Count
		for _, e := range *m.more {
			if idx < e.Count {
				return e.Start + BlockID(idx)
			}
			idx -= e.Count
		}
	}
	panic("ncc: block map index out of range")
}

// Contains reports whether b is one of the map's blocks.
func (m *BlockMap) Contains(b BlockID) bool {
	found := false
	m.Runs(func(e Extent) bool {
		found = b-e.Start < BlockID(e.Count)
		return !found
	})
	return found
}

// Append adds one block to the end of the map.
func (m *BlockMap) Append(b BlockID) { m.AppendRun(Extent{Start: b, Count: 1}) }

// AppendRun adds a run to the end of the map, extending the last run when e
// starts where it ends.
func (m *BlockMap) AppendRun(e Extent) {
	if e.Count == 0 {
		return
	}
	if m.first.Count == 0 {
		m.first = e
		return
	}
	last := &m.first
	if m.more != nil && len(*m.more) > 0 {
		last = &(*m.more)[len(*m.more)-1]
	}
	if last.End() == e.Start {
		last.Count += e.Count
		return
	}
	if m.more == nil {
		m.more = new([]Extent)
	}
	*m.more = append(*m.more, e)
}

// Cut shortens the map to its first n blocks and appends the blocks it
// removes, in order, to the end of into. A map of at most n blocks is left as
// it is.
func (m *BlockMap) Cut(n int, into *BlockMap) {
	keep := uint64(max(n, 0))
	if keep < m.first.Count {
		into.AppendRun(Extent{Start: m.first.Start + BlockID(keep), Count: m.first.Count - keep})
		m.first.Count = keep
		if m.more != nil {
			for _, e := range *m.more {
				into.AppendRun(e)
			}
			*m.more = (*m.more)[:0]
		}
		return
	}
	if m.more == nil {
		return
	}
	keep -= m.first.Count
	more := *m.more
	for i := range more {
		if keep >= more[i].Count {
			keep -= more[i].Count
			continue
		}
		into.AppendRun(Extent{Start: more[i].Start + BlockID(keep), Count: more[i].Count - keep})
		for _, e := range more[i+1:] {
			into.AppendRun(e)
		}
		more[i].Count = keep
		if keep > 0 {
			i++
		}
		*m.more = more[:i]
		return
	}
}

// Cap returns the number of runs the map holds without allocating, which
// Reset keeps.
func (m *BlockMap) Cap() int {
	if m.more == nil {
		return 1
	}
	return 1 + cap(*m.more)
}

// Reset empties the map, keeping its overflow's capacity.
func (m *BlockMap) Reset() {
	m.first = Extent{}
	if m.more != nil {
		*m.more = (*m.more)[:0]
	}
}

// Runs calls yield with each run of the map in order until yield returns
// false.
func (m *BlockMap) Runs(yield func(Extent) bool) {
	if m.first.Count == 0 || !yield(m.first) || m.more == nil {
		return
	}
	for _, e := range *m.more {
		if !yield(e) {
			return
		}
	}
}

// RunsIn calls yield with the runs that cover positions [from, to) of the
// map, the first and the last cut to that range, in order, until yield
// returns false. Positions at or past Len are covered by nothing.
func (m *BlockMap) RunsIn(from, to int, yield func(Extent) bool) {
	if from < 0 {
		from = 0
	}
	if to <= from {
		return
	}
	lo, hi := uint64(from), uint64(to)
	var pos uint64 // the position of the run's first block
	m.Runs(func(e Extent) bool {
		end := pos + e.Count
		if end <= lo {
			pos = end
			return true
		}
		skip := lo - min(lo, pos)
		n := min(end, hi) - pos - skip
		if !yield(Extent{Start: e.Start + BlockID(skip), Count: n}) {
			return false
		}
		pos = end
		return end < hi
	})
}

// Flatten appends the map's blocks, in order, to dst as the flat list the
// write-ahead log and checkpoints carry.
func (m *BlockMap) Flatten(dst []uint64) []uint64 {
	m.Runs(func(e Extent) bool {
		for j := uint64(0); j < e.Count; j++ {
			dst = append(dst, uint64(e.Start)+j)
		}
		return true
	})
	return dst
}
