package ncc

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/fsapi"
)

func TestDRAMReadWrite(t *testing.T) {
	d := NewDRAM(16, 128)
	if d.BlockSize() != 128 || d.NumBlocks() != 16 {
		t.Fatal("geometry wrong")
	}
	buf := make([]byte, 16)
	if n := d.ReadDirect(3, 0, buf); n != 16 {
		t.Fatalf("read %d bytes, want 16", n)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten DRAM should read as zeros")
		}
	}
	data := []byte("hello, shared dram")
	d.WriteDirect(3, 10, data)
	out := make([]byte, len(data))
	d.ReadDirect(3, 10, out)
	if !bytes.Equal(out, data) {
		t.Fatalf("read back %q, want %q", out, data)
	}
	d.ZeroBlock(3)
	d.ReadDirect(3, 10, out)
	for _, b := range out {
		if b != 0 {
			t.Fatal("zeroed block should read as zeros")
		}
	}
}

func TestDRAMOffsetsAndBounds(t *testing.T) {
	d := NewDRAM(2, 64)
	// Write that exceeds the block is truncated at the block boundary.
	big := make([]byte, 100)
	for i := range big {
		big[i] = 0xAB
	}
	if n := d.WriteDirect(0, 32, big); n != 32 {
		t.Fatalf("write across boundary wrote %d, want 32", n)
	}
	if n := d.WriteDirect(0, 64, big); n != 0 {
		t.Fatalf("write at block end wrote %d, want 0", n)
	}
}

func TestPrivateCacheStalenessWithoutInvalidation(t *testing.T) {
	d := NewDRAM(8, 64)
	c1 := NewPrivateCache(d)
	c2 := NewPrivateCache(d)

	// Core 2 reads the block first, caching zeros.
	buf := make([]byte, 4)
	c2.Read(0, 0, buf)

	// Core 1 writes and writes back.
	c1.Write(0, 0, []byte{1, 2, 3, 4})
	c1.WritebackExtents([]Extent{{Start: 0, Count: 1}}, false)

	// Core 2 still sees its stale copy: the hardware is not coherent.
	c2.Read(0, 0, buf)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("expected stale zeros without invalidation, got %v", buf)
	}

	// After an explicit invalidation, core 2 observes the new data.
	c2.Invalidate([]BlockID{0})
	c2.Read(0, 0, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("expected fresh data after invalidation, got %v", buf)
	}
}

func TestPrivateCacheWritebackRequired(t *testing.T) {
	d := NewDRAM(8, 64)
	writer := NewPrivateCache(d)
	writer.Write(1, 0, []byte{9, 9})
	if !writer.Dirty(1) {
		t.Fatal("block should be dirty after write")
	}

	// DRAM must not see the write before writeback.
	buf := make([]byte, 2)
	d.ReadDirect(1, 0, buf)
	if buf[0] != 0 {
		t.Fatal("write-back cache leaked data to DRAM before writeback")
	}
	writer.WritebackExtents([]Extent{{Start: 1, Count: 1}}, false)
	if writer.Dirty(1) {
		t.Fatal("block should be clean after writeback")
	}
	d.ReadDirect(1, 0, buf)
	if buf[0] != 9 {
		t.Fatal("writeback did not reach DRAM")
	}
}

func TestPrivateCacheInvalidateDiscardsDirty(t *testing.T) {
	d := NewDRAM(4, 64)
	c := NewPrivateCache(d)
	c.Write(0, 0, []byte{7})
	c.Invalidate([]BlockID{0})
	buf := make([]byte, 1)
	c.Read(0, 0, buf)
	if buf[0] != 0 {
		t.Fatal("invalidate should discard dirty data")
	}
}

func TestPrivateCacheStats(t *testing.T) {
	d := NewDRAM(4, 64)
	c := NewPrivateCache(d)
	buf := make([]byte, 8)
	if _, hit := c.Read(0, 0, buf); hit {
		t.Fatal("first read should miss")
	}
	if _, hit := c.Read(0, 0, buf); !hit {
		t.Fatal("second read should hit")
	}
	c.Write(1, 0, []byte{1})
	c.WritebackAll()
	c.InvalidateAll()
	st := c.Stats()
	if st.Misses < 2 || st.Hits < 1 || st.Writebacks != 1 || st.Resident != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestPartitionAllocFree(t *testing.T) {
	d := NewDRAM(10, 64)
	parts := PartitionDRAM(d, 3)
	if len(parts) != 3 {
		t.Fatal("wrong partition count")
	}
	total := 0
	for _, p := range parts {
		total += p.Total()
	}
	if total != 10 {
		t.Fatalf("partitions cover %d blocks, want 10", total)
	}

	p := parts[0]
	var got []BlockID
	for {
		b, err := p.Alloc()
		if err != nil {
			if !fsapi.IsErrno(err, fsapi.ENOSPC) {
				t.Fatalf("expected ENOSPC, got %v", err)
			}
			break
		}
		got = append(got, b)
	}
	if len(got) != p.Total() {
		t.Fatalf("allocated %d blocks, want %d", len(got), p.Total())
	}
	p.Free(mapOf(got...))
	if p.FreeCount() != p.Total() {
		t.Fatal("free did not restore the free list")
	}
}

func TestPartitionAllocZeroesBlock(t *testing.T) {
	d := NewDRAM(4, 64)
	parts := PartitionDRAM(d, 1)
	b, err := parts[0].Alloc()
	if err != nil {
		t.Fatal(err)
	}
	d.WriteDirect(b, 0, []byte{0xFF, 0xFF})
	parts[0].Free(mapOf(b))
	b2, err := parts[0].Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b {
		// The allocator is a stack, so the same block comes back.
		t.Fatalf("expected block %d, got %d", b, b2)
	}
	buf := make([]byte, 2)
	d.ReadDirect(b2, 0, buf)
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatal("reallocated block not zeroed: data leaked between files")
	}
}

// mapOf returns a block map of the given blocks, in order.
func mapOf(blocks ...BlockID) *BlockMap {
	m := new(BlockMap)
	for _, b := range blocks {
		m.Append(b)
	}
	return m
}

// allocRun takes n blocks from p and fails unless they are n consecutive
// ascending blocks starting at want.
func allocRun(t *testing.T, p *Partition, n int, want BlockID) []BlockID {
	t.Helper()
	got := make([]BlockID, n)
	for i := range got {
		b, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got[i] = b
	}
	for i, b := range got {
		if b != want+BlockID(i) {
			t.Fatalf("allocations = %v, want %d consecutive blocks from %d", got, n, want)
		}
	}
	return got
}

// TestPartitionAllocAscending: a fresh partition hands its blocks out in
// ascending order, so a file grown by one server is one extent.
func TestPartitionAllocAscending(t *testing.T) {
	parts := PartitionDRAM(NewDRAM(64, 64), 2)
	lo, _ := parts[1].Range()
	got := allocRun(t, parts[1], 16, lo)
	var l ExtentList
	for _, b := range got {
		l.Append(b)
	}
	if l.NumRuns() != 1 {
		t.Fatalf("16 fresh blocks are %d runs, want 1", l.NumRuns())
	}
}

// TestPartitionFreeKeepsRunAscending: a freed file's blocks come back as the
// same ascending run, ahead of blocks never handed out.
func TestPartitionFreeKeepsRunAscending(t *testing.T) {
	p := PartitionDRAM(NewDRAM(32, 64), 1)[0]
	allocRun(t, p, 4, 0)
	run := allocRun(t, p, 8, 4)
	p.Free(mapOf(run...))
	allocRun(t, p, 8, 4)
	allocRun(t, p, 4, 12)
}

// TestPartitionAllocReclaimAscending: Reclaim, the rebuild behind recovery
// and promotion, hands out the gaps around the in-use set in ascending order.
func TestPartitionAllocReclaimAscending(t *testing.T) {
	parts := PartitionDRAM(NewDRAM(32, 64), 2)
	p := parts[1]
	lo, hi := p.Range()
	inUse := map[BlockID]bool{lo + 2: true, lo + 3: true, lo + 7: true}
	p.Reclaim([]Extent{{Start: lo + 7, Count: 1}, {Start: lo + 2, Count: 2}})
	var want []BlockID
	for b := lo; b < hi; b++ {
		if !inUse[b] {
			want = append(want, b)
		}
	}
	if p.FreeCount() != len(want) {
		t.Fatalf("FreeCount = %d after Reclaim, want %d", p.FreeCount(), len(want))
	}
	for i, w := range want {
		b, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if b != w {
			t.Fatalf("allocation %d after Reclaim = %d, want %d (gaps in ascending order %v)", i, b, w, want)
		}
	}
}

// Property: data written through a cache and written back always reads back
// identically via DRAM, for arbitrary offsets within a block.
func TestCacheWriteReadProperty(t *testing.T) {
	d := NewDRAM(4, 256)
	f := func(off uint8, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64 {
			data = data[:64]
		}
		o := int(off) % 192
		c := NewPrivateCache(d)
		c.Write(2, o, data)
		c.WritebackExtents([]Extent{{Start: 2, Count: 1}}, false)
		out := make([]byte, len(data))
		d.ReadDirect(2, o, out)
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFrameFreeListIsBounded: invalidating a large resident set keeps at most
// frameFreeCap frames for later misses, and a recycled frame shows the block
// it was fetched for, clean, whatever it held before.
func TestFrameFreeListIsBounded(t *testing.T) {
	const blocks = 3 * frameFreeCap
	d := NewDRAM(blocks, 128)
	c := NewPrivateCache(d)
	junk := bytes.Repeat([]byte{0xEE}, 128)
	for b := BlockID(0); b < blocks; b++ {
		c.Write(b, 0, junk) // resident and dirty in every line
	}
	if dropped := c.InvalidateExtents([]Extent{{Start: 0, Count: blocks}}); dropped != blocks {
		t.Fatalf("dropped %d blocks, want %d", dropped, blocks)
	}
	if len(c.free) != frameFreeCap {
		t.Fatalf("free list holds %d frames, want the cap %d", len(c.free), frameFreeCap)
	}
	d.WriteDirect(7, 0, []byte("fresh"))
	got := make([]byte, 128)
	c.Read(7, 0, got)
	if want := append([]byte("fresh"), make([]byte, 123)...); !bytes.Equal(got, want) || c.Dirty(7) {
		t.Fatalf("a recycled frame shows %q (dirty=%v), want the block's DRAM contents, clean", got[:8], c.Dirty(7))
	}
	if len(c.free) != frameFreeCap-1 {
		t.Fatalf("the miss did not take a frame from the free list (%d left)", len(c.free))
	}
}

// TestSmallBlockFootprint: a block holds only the lines written to it. 4096
// blocks of 256 B written through one core's cache, written back, and read
// through a second core's, with the writer's cache gone, keep DRAM's copy
// and the reader's frame of each: about 600 B a block of live heap, where a
// 4 KiB array per block and per frame kept 8 KiB.
func TestSmallBlockFootprint(t *testing.T) {
	const blocks, written = 4096, 256
	d := NewDRAM(blocks, 4096)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	func() {
		w := NewPrivateCache(d)
		payload := bytes.Repeat([]byte{7}, written)
		for b := BlockID(0); b < blocks; b++ {
			w.Write(b, 0, payload)
		}
		w.WritebackAll()
	}()
	r := NewPrivateCache(d)
	buf := make([]byte, written)
	for b := BlockID(0); b < blocks; b++ {
		if r.Read(b, 0, buf); buf[written-1] != 7 {
			t.Fatalf("block %d reads %d at its last written byte, want 7", b, buf[written-1])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	growth := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("live heap grew %d B, %d B a block", growth, growth/blocks)
	if growth > blocks*1024 {
		t.Fatalf("live heap grew %d B for %d blocks of %d B (%d B a block), want at most 1 KiB a block", growth, blocks, written, growth/blocks)
	}
}

// TestChurnSteadyStateAllocs: the cache's share of a create/write/close/
// unlink iteration — miss, partial write, dirty-line writeback, invalidation
// on the block's next life, DRAM zeroed for its next owner — allocates
// nothing once one frame and one block's array exist.
func TestChurnSteadyStateAllocs(t *testing.T) {
	d := NewDRAM(4, 4096)
	c := NewPrivateCache(d)
	payload := bytes.Repeat([]byte{7}, 64)
	exts := []Extent{{Start: 2, Count: 1}}
	churn := func() {
		d.ZeroBlock(2)
		c.InvalidateExtents(exts)
		c.Write(2, 0, payload)
		if _, lines := c.WritebackExtents(exts, true); lines != 1 {
			t.Fatalf("writeback moved %d lines, want 1", lines)
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("a churn iteration allocates %v times in the cache, want 0", allocs)
	}
}

// TestFrameMissesAllocByPage: a cache allocates its frames, dirty bitmaps
// included, framePage at a time, and the arrays of frames that held nothing
// yet — a read miss's, sized to the block's present lines, or a first
// write's — framePage lines at a time, so misses on blocks the core has not
// held cost allocations by the page, not by the block. How many such blocks
// a run meets follows the host's scheduling; an allocation count per block
// would follow it too.
func TestFrameMissesAllocByPage(t *testing.T) {
	const blocks = 4 * framePage
	d := NewDRAM(blocks, 4096)
	small := NewDRAM(blocks, 4096) // every block a small file's: 256 B
	two := bytes.Repeat([]byte{7}, 2*LineSize)
	for b := BlockID(0); b < blocks; b++ {
		small.WriteDirect(b, 0, bytes.Repeat([]byte{9}, 4*LineSize))
	}
	for _, tc := range []struct {
		name  string
		dram  *DRAM
		touch func(c *PrivateCache, b BlockID)
		max   float64
	}{
		{"read", d, func(c *PrivateCache, b BlockID) { c.Read(b, 0, two[:0]) }, blocks / 8},
		{"read a 256 B block", small, func(c *PrivateCache, b BlockID) { c.Read(b, 0, two[:0]) }, blocks / 8},
		{"write one line", d, func(c *PrivateCache, b BlockID) { c.Write(b, 8, two[:LineSize-8]) }, blocks / 8},
		{"write two lines", d, func(c *PrivateCache, b BlockID) { c.Write(b, 0, two) }, blocks / 8},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			c := NewPrivateCache(tc.dram)
			for b := BlockID(0); b < blocks; b++ {
				tc.touch(c, b)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %d misses on a fresh cache allocate %v times, want at most %v", tc.name, blocks, allocs, tc.max)
		} else {
			t.Logf("%s: %d misses on a fresh cache allocate %v times", tc.name, blocks, allocs)
		}
	}
}
