package ncc

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/shadow"
)

// Tests for the zero-waste data path primitives: extent lists, dirty-line
// bitmaps, and the ranged writeback/invalidate variants, including a
// randomized property test against a flat shadow model.

func TestExtentListAppendAndAt(t *testing.T) {
	var l ExtentList
	blocks := []BlockID{4, 5, 6, 10, 11, 3, 7, 8}
	for _, b := range blocks {
		l.Append(b)
	}
	if l.Len() != len(blocks) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(blocks))
	}
	if l.NumRuns() != 4 {
		t.Fatalf("NumRuns = %d, want 4 (%+v)", l.NumRuns(), l.Runs())
	}
	for i, want := range blocks {
		if got := l.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
	// Block 4 is the second of the run {10, 2}: the head is that run's rest.
	head, rest := l.TailRuns(4)
	if want := []Extent{{Start: 3, Count: 1}, {Start: 7, Count: 2}}; head != (Extent{Start: 11, Count: 1}) || !slices.Equal(rest, want) {
		t.Fatalf("TailRuns(4) = %+v, %+v, want {11 1}, %+v", head, rest, want)
	}
	if head, rest := l.TailRuns(3); head != (Extent{Start: 10, Count: 2}) || len(rest) != 2 {
		t.Fatalf("TailRuns(3) = %+v, %+v, want the whole run {10 2} and two more", head, rest)
	}
	if head, rest := l.TailRuns(len(blocks)); head.Count != 0 || rest != nil {
		t.Fatal("TailRuns past the end should be empty")
	}
	if allocs := testing.AllocsPerRun(100, func() { l.TailRuns(4) }); allocs != 0 {
		t.Fatalf("TailRuns allocated %v times, want 0", allocs)
	}
	l.Reset()
	if l.Len() != 0 || l.NumRuns() != 0 {
		t.Fatal("Reset did not empty the list")
	}
}

func TestNormalizeExtentsMergesOverlaps(t *testing.T) {
	exts := []Extent{
		{Start: 10, Count: 3}, // [10,13)
		{Start: 2, Count: 2},  // [2,4)
		{Start: 11, Count: 4}, // [11,15) overlaps the first
		{Start: 4, Count: 1},  // adjacent to [2,4)
		{Start: 12, Count: 1}, // contained
	}
	norm := NormalizeExtents(exts)
	want := []Extent{{Start: 2, Count: 3}, {Start: 10, Count: 5}}
	if len(norm) != len(want) {
		t.Fatalf("normalize = %+v, want %+v", norm, want)
	}
	for i := range want {
		if norm[i] != want[i] {
			t.Fatalf("normalize[%d] = %+v, want %+v", i, norm[i], want[i])
		}
	}
	if ExtentBlocks(norm) != 8 {
		t.Fatalf("ExtentBlocks = %d, want 8", ExtentBlocks(norm))
	}
	for _, b := range []BlockID{2, 3, 4, 10, 14} {
		if !extentsContain(norm, b) {
			t.Fatalf("extentsContain(%d) = false", b)
		}
	}
	for _, b := range []BlockID{1, 5, 9, 15} {
		if extentsContain(norm, b) {
			t.Fatalf("extentsContain(%d) = true", b)
		}
	}
}

func TestDirtyLineWritebackMovesOnlyWrittenLines(t *testing.T) {
	d := NewDRAM(4, 4*LineSize)
	c := NewPrivateCache(d)

	// Another core's data sits in DRAM line 1 of block 0.
	theirs := bytes.Repeat([]byte{0xAA}, LineSize)
	d.WriteDirect(0, LineSize, theirs)

	// This core caches the block, then writes only line 3.
	buf := make([]byte, LineSize)
	c.Read(0, 0, buf[:1])
	ours := bytes.Repeat([]byte{0x55}, LineSize)
	c.Write(0, 3*LineSize, ours)
	if got := c.DirtyLines(0); got != 1 {
		t.Fatalf("DirtyLines = %d, want 1", got)
	}

	// Meanwhile DRAM line 1 changes again (the other core wrote back).
	newer := bytes.Repeat([]byte{0xBB}, LineSize)
	d.WriteDirect(0, LineSize, newer)

	blocks, lines := c.WritebackExtents([]Extent{{Start: 0, Count: 4}}, true)
	if blocks != 1 || lines != 1 {
		t.Fatalf("writeback moved %d blocks / %d lines, want 1/1", blocks, lines)
	}
	// The dirty-line writeback must not have clobbered line 1 with the stale
	// cached copy; a full-block writeback would have.
	got := make([]byte, LineSize)
	d.ReadDirect(0, LineSize, got)
	if !bytes.Equal(got, newer) {
		t.Fatal("dirty-line writeback clobbered a clean line with stale data")
	}
	d.ReadDirect(0, 3*LineSize, got)
	if !bytes.Equal(got, ours) {
		t.Fatal("dirty line did not reach DRAM")
	}
	if c.Dirty(0) {
		t.Fatal("block still dirty after writeback")
	}
}

// toRuns converts ncc extents to the shared shadow package's block runs.
func toRuns(exts []Extent) []shadow.Run {
	out := make([]shadow.Run, len(exts))
	for i, e := range exts {
		out[i] = shadow.Run{Start: uint64(e.Start), Count: e.Count}
	}
	return out
}

// TestDataPathPropertyAgainstShadow drives random write / read / writeback
// (dirty-line and full-block, through all three entry points) / invalidate /
// version-skip / remote-DRAM-write / block-reallocation sequences through the
// private cache and the shared flat shadow model (shadow.Blocks), asserting
// byte-equality of every read and of all of DRAM after every round, every
// returned count and hit flag, every counter, and that dirty-line writebacks
// never move more lines than were written. The shadow holds every block and
// frame as a full array allocated fresh; the cache and the DRAM hold a block
// as its bytes up to the last line written, and recycle the frames
// invalidations drop and a reallocated block's array. Offsets favour a
// block's first lines, so most blocks stay short, writes start past a
// frame's end, reads straddle it, and frames move between blocks of
// different lengths: a byte, a dirty bit or a stale tail that survived any
// of that shows as a divergence, and a line count that followed a frame's
// length instead of the block's as a counter mismatch.
func TestDataPathPropertyAgainstShadow(t *testing.T) {
	const (
		numBlocks = 12
		blockSize = 8 * LineSize
		lines     = blockSize / LineSize
		rounds    = 6000
		seed      = uint64(0xDEADBEEFCAFE)
	)
	d := NewDRAM(numBlocks, blockSize)
	c := NewPrivateCache(d)
	ref := shadow.NewBlocks(blockSize, LineSize)
	all := []Extent{{Start: 0, Count: numBlocks}}
	// The counters full 4 KiB frames give, from the shadow's resident set.
	var want CacheStats
	access := func(b BlockID) bool {
		hit := ref.Cached(uint64(b))
		if hit {
			want.Hits++
		} else {
			want.Misses++
		}
		return hit
	}

	// On any failure the seed is in the log, so the run is replayable.
	t.Logf("datapath property seed: %#x", seed)
	rng := seed
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}

	var linesWritten, linesMoved int
	// randExtents produces one or two runs, deliberately unsorted and
	// possibly overlapping — block maps arrive in file order, which under
	// LIFO allocation means descending block ids.
	randExtents := func() []Extent {
		start := BlockID(next(numBlocks))
		count := uint64(1 + next(numBlocks-int(start)))
		exts := []Extent{{Start: start, Count: count}}
		if next(2) == 0 {
			s2 := BlockID(next(numBlocks))
			exts = append(exts, Extent{Start: s2, Count: uint64(1 + next(numBlocks-int(s2)))})
		}
		return exts
	}

	// fill returns n bytes none of which is zero, so that a byte the sparse
	// form lost cannot pass for one it implies.
	fill := func(n int) []byte {
		src := make([]byte, n)
		for j := range src {
			src[j] = byte(1 + next(255))
		}
		return src
	}

	for i := 0; i < rounds; i++ {
		b := BlockID(next(numBlocks))
		off := next(blockSize)
		if next(2) == 0 {
			off = next(2 * LineSize)
		}
		// n may run past the block's end; counts stop there.
		n := 1 + next(blockSize-off+LineSize)
		fit := min(n, blockSize-off)
		switch next(12) {
		case 0, 1: // direct-access write through the cache
			src := fill(n)
			wantHit := access(b)
			wrote, hit := c.Write(b, off, src)
			if wrote != fit || hit != wantHit {
				t.Fatalf("round %d: write block %d off %d len %d = (%d, hit %v), want (%d, hit %v)", i, b, off, n, wrote, hit, fit, wantHit)
			}
			ref.Write(uint64(b), off, src)
			linesWritten += (off+wrote-1)/LineSize - off/LineSize + 1
		case 2, 3: // read through the cache: must equal the shadow's view
			got := fill(n) // what the read does not overwrite shows
			wantHit := access(b)
			read, hit := c.Read(b, off, got)
			if read != fit || hit != wantHit {
				t.Fatalf("round %d: read block %d off %d len %d = (%d, hit %v), want (%d, hit %v)", i, b, off, n, read, hit, fit, wantHit)
			}
			if !bytes.Equal(got[:read], ref.Resident(uint64(b))[off:off+fit]) {
				t.Fatalf("round %d: read block %d off %d diverged from shadow", i, b, off)
			}
		case 4: // ranged dirty-line writeback
			exts := randExtents()
			_, moved := c.WritebackExtents(exts, true)
			if wantMoved := ref.Writeback(toRuns(exts)); moved != wantMoved {
				t.Fatalf("round %d: writeback moved %d lines, shadow says %d", i, moved, wantMoved)
			}
			want.LinesWB += uint64(moved)
			linesMoved += moved
		case 5: // full-block writeback, through each of its entry points
			exts := randExtents()
			var flushed, wantFlushed int
			switch next(3) {
			case 0:
				var blocks []BlockID
				for _, e := range exts {
					for x := e.Start; x < e.End(); x++ {
						blocks = append(blocks, x)
					}
				}
				flushed, wantFlushed = c.Writeback(blocks), ref.WritebackFull(toRuns(exts))
			case 1:
				flushed, wantFlushed = c.WritebackAll(), ref.WritebackFull(toRuns(all))
			case 2:
				var moved int
				flushed, moved = c.WritebackExtents(exts, false)
				wantFlushed = ref.WritebackFull(toRuns(exts))
				if moved != flushed*lines {
					t.Fatalf("round %d: full writeback of %d blocks moved %d lines, want %d", i, flushed, moved, flushed*lines)
				}
			}
			if flushed != wantFlushed {
				t.Fatalf("round %d: full writeback flushed %d blocks, shadow says %d", i, flushed, wantFlushed)
			}
			want.LinesWB += uint64(flushed * lines)
		case 6: // ranged invalidation
			exts := randExtents()
			dropped := c.InvalidateExtents(exts)
			if wantDropped := ref.Invalidate(toRuns(exts)); dropped != wantDropped {
				t.Fatalf("round %d: invalidation dropped %d blocks, shadow says %d", i, dropped, wantDropped)
			}
			want.LinesInv += uint64(dropped * lines)
		case 7: // one block's invalidation, or the whole cache's
			var dropped, wantDropped int
			if next(4) == 0 {
				dropped, wantDropped = c.InvalidateAll(), ref.Invalidate(toRuns(all))
			} else {
				dropped, wantDropped = c.Invalidate([]BlockID{b}), ref.Invalidate([]shadow.Run{{Start: uint64(b), Count: 1}})
			}
			if dropped != wantDropped {
				t.Fatalf("round %d: invalidation dropped %d blocks, shadow says %d", i, dropped, wantDropped)
			}
			want.LinesInv += uint64(dropped * lines)
		case 8: // a version-matched open keeps what is resident (of a block
			// map, whose runs do not overlap)
			exts := NormalizeExtents(randExtents())
			skipped := c.NoteVersionSkip(exts)
			if wantSkipped := ref.Covered(toRuns(exts)) * lines; skipped != wantSkipped {
				t.Fatalf("round %d: version skip kept %d lines, shadow says %d", i, skipped, wantSkipped)
			}
			want.LinesSkipped += uint64(skipped)
		case 9: // another core writes DRAM directly (its own writeback)
			src := fill(n)
			if wrote := d.WriteDirect(b, off, src); wrote != fit {
				t.Fatalf("round %d: DRAM write block %d off %d len %d = %d, want %d", i, b, off, n, wrote, fit)
			}
			ref.WriteDRAM(uint64(b), off, src)
		case 10: // another core writes the whole block
			src := fill(blockSize)
			d.WriteDirect(b, 0, src)
			ref.WriteDRAM(uint64(b), 0, src)
		case 11: // the block is reallocated: its owner's server zeroes DRAM
			d.ZeroBlock(b)
			ref.WriteDRAM(uint64(b), 0, make([]byte, blockSize))
		}
		// DRAM reads as the shadow's everywhere, and the counters are the
		// ones full frames give.
		for blk := 0; blk < numBlocks; blk++ {
			got := fill(blockSize)
			if read := d.ReadDirect(BlockID(blk), 0, got); read != blockSize || !bytes.Equal(got, ref.DRAM(uint64(blk))) {
				t.Fatalf("round %d: DRAM block %d diverged from shadow", i, blk)
			}
		}
		want.Resident = ref.Covered(toRuns(all))
		st := c.Stats()
		st.Writebacks, st.Invalidated = 0, 0
		if st != want {
			t.Fatalf("round %d: stats %+v, full frames give %+v", i, st, want)
		}
	}
	if linesMoved > linesWritten {
		t.Fatalf("moved %d lines but only %d were written: writeback moved clean data", linesMoved, linesWritten)
	}
	if linesMoved == 0 || linesWritten == 0 {
		t.Fatal("property test exercised no writebacks; widen the op mix")
	}
}

// BenchmarkWritebackExtents measures the ranged dirty-line flush over a
// cache with many resident blocks and a sparse dirty set.
func BenchmarkWritebackExtents(b *testing.B) {
	const numBlocks = 4096
	d := NewDRAM(numBlocks, 4096)
	c := NewPrivateCache(d)
	buf := make([]byte, 64)
	for i := 0; i < numBlocks; i++ {
		c.Read(BlockID(i), 0, buf) // make resident
	}
	exts := []Extent{{Start: 0, Count: numBlocks}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(BlockID(i%numBlocks), 128, buf)
		c.WritebackExtents(exts, true)
	}
}

// BenchmarkExtentListAt measures random access into a fragmented block map.
func BenchmarkExtentListAt(b *testing.B) {
	var l ExtentList
	for i := 0; i < 1024; i++ {
		l.Append(BlockID(i * 2)) // fully fragmented: one run per block
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.At(i%1024) != BlockID((i%1024)*2) {
			b.Fatal("wrong block")
		}
	}
}
