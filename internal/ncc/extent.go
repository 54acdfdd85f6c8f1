package ncc

import (
	"cmp"
	"slices"
	"sort"
)

// Extent is a run of Count consecutive buffer-cache blocks starting at Start.
// File block maps and wire messages use extents so their size scales with the
// file's fragmentation rather than with its length. A Partition hands blocks
// out in ascending order — from a fresh partition, after Free, and after the
// Reclaim behind recovery and promotion — so a file one server grows alone
// into free space is one run however many blocks it holds. Files that grow
// side by side on one server take turns at its partition and fragment.
type Extent struct {
	Start BlockID
	Count uint64
}

// End returns the first block after the extent (half-open [Start, End)).
func (e Extent) End() BlockID { return e.Start + BlockID(e.Count) }

// NormalizeExtents sorts extents by start block and merges overlapping and
// adjacent runs into a canonical disjoint ascending form, dropping empty
// ones. Overlaps arise from repeated writes to the same file region;
// normalizing before writeback means no block is visited — or charged —
// twice. The input slice is reused, and nothing is allocated.
func NormalizeExtents(exts []Extent) []Extent {
	slices.SortFunc(exts, func(a, b Extent) int { return cmp.Compare(a.Start, b.Start) })
	out := exts[:0]
	for _, e := range exts {
		if e.Count == 0 {
			continue
		}
		if n := len(out); n > 0 && e.Start <= out[n-1].End() {
			if e.End() > out[n-1].End() {
				out[n-1].Count = uint64(e.End() - out[n-1].Start)
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
