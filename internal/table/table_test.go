package table

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// identity hashing makes probe clusters easy to construct on purpose.
func idHash(x uint64) uint64 { return x }

// TestMapBasic exercises put/get/delete/replace against a reference map
// through a deterministic churn history.
func TestMapBasic(t *testing.T) {
	m := New[uint64, int](HashU64, 0)
	ref := make(map[uint64]int)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 20000; i++ {
		k := next() % 4096
		switch next() % 3 {
		case 0, 1:
			m.Put(k, i)
			ref[k] = i
		case 2:
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", k, got, ok, want)
		}
	}
	for k := uint64(0); k < 4096; k++ {
		if _, inRef := ref[k]; !inRef {
			if _, ok := m.Get(k); ok {
				t.Fatalf("Get(%d) found a deleted key", k)
			}
		}
	}
}

// TestPutKeepsTheStoredKey: Put over a key already present replaces the
// value and keeps the key string the entry was stored under, so a caller may
// pass an equal string whose bytes change after the call (a server's lent
// names, DESIGN.md §13) — through a grow too.
func TestPutKeepsTheStoredKey(t *testing.T) {
	m := New[string, int](HashString, 0)
	stored := []string{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("name-%02d", i)
		m.Put(k, i)
		stored = append(stored, k)
		borrowed := []byte(stored[i/2])
		m.Put(unsafe.String(&borrowed[0], len(borrowed)), -i)
		for j := range borrowed {
			borrowed[j] = '#'
		}
	}
	m.Range(func(k string, v int) bool {
		i := slices.Index(stored, k)
		if i < 0 || unsafe.StringData(k) != unsafe.StringData(stored[i]) {
			t.Fatalf("entry %q (%d) is not stored under the key first put", k, v)
		}
		return true
	})
	if m.Len() != len(stored) {
		t.Fatalf("%d entries, want %d", m.Len(), len(stored))
	}
}

// TestMapBackwardShift builds colliding clusters (identity hash, keys with
// the same low bits) and deletes from the middle: backward-shift compaction
// must keep every survivor reachable, including wrapped clusters.
func TestMapBackwardShift(t *testing.T) {
	m := New[uint64, int](idHash, 0)
	// All keys land on slot (k & mask); multiples of a large power of two
	// collide into one cluster.
	keys := []uint64{8, 8 + 1024, 8 + 2048, 8 + 4096, 8 + 8192, 9, 10}
	for i, k := range keys {
		m.Put(k, i)
	}
	// Delete the cluster head, then a middle entry.
	for _, del := range []uint64{8, 8 + 2048} {
		if !m.Delete(del) {
			t.Fatalf("Delete(%d) missed", del)
		}
		for i, k := range keys {
			if k == 8 || (del == 8+2048 && k == del) {
				continue
			}
			if v, ok := m.Get(k); !ok || v != i {
				t.Fatalf("after Delete(%d): Get(%d) = %d,%v, want %d,true", del, k, v, ok, i)
			}
		}
	}

	// Wrapped cluster: keys hashing to the last slots spill past the end.
	w := New[uint64, int](idHash, 0) // cap 8, mask 7
	for i, k := range []uint64{7, 15, 23, 31} {
		w.Put(k, i) // all home at slot 7; cluster wraps to 0,1,2
	}
	if !w.Delete(7) {
		t.Fatal("Delete(7) missed")
	}
	for i, k := range []uint64{15, 23, 31} {
		if v, ok := w.Get(k); !ok || v != i+1 {
			t.Fatalf("wrapped cluster: Get(%d) = %d,%v, want %d,true", k, v, ok, i+1)
		}
	}
}

// TestMapRangeDeterministic pins slot-order iteration: two tables built by
// the same operation history visit entries in the same order.
func TestMapRangeDeterministic(t *testing.T) {
	build := func() *Map[uint64, int] {
		m := New[uint64, int](HashU64, 0)
		for i := 0; i < 1000; i++ {
			m.Put(uint64(i*7), i)
		}
		for i := 0; i < 1000; i += 3 {
			m.Delete(uint64(i * 7))
		}
		return m
	}
	var a, b []uint64
	build().Range(func(k uint64, _ int) bool { a = append(a, k); return true })
	build().Range(func(k uint64, _ int) bool { b = append(b, k); return true })
	if len(a) != len(b) {
		t.Fatalf("walk lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestMapClear keeps the backing array but drops every entry.
func TestMapClear(t *testing.T) {
	m := New[uint64, int](HashU64, 0)
	for i := 0; i < 100; i++ {
		m.Put(uint64(i), i)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("Get found an entry after Clear")
	}
	m.Put(5, 50)
	if v, _ := m.Get(5); v != 50 {
		t.Fatal("Put after Clear lost the entry")
	}
}

// TestMapAllocsOnlyOnFirstPut: a map holds no slots until its first Put —
// making one by Make, and reads, deletes, walks and clears of it, allocate
// nothing — and the first Put makes the array its size hint asked for.
func TestMapAllocsOnlyOnFirstPut(t *testing.T) {
	var m Map[uint64, int]
	if allocs := testing.AllocsPerRun(100, func() {
		m = Make[uint64, int](HashU64, 64)
		if _, ok := m.Get(7); ok || m.Delete(7) || m.Len() != 0 {
			t.Fatal("an unfilled map holds an entry")
		}
		m.Range(func(uint64, int) bool { t.Fatal("an unfilled map walked an entry"); return false })
		m.Clear()
	}); allocs != 0 {
		t.Fatalf("an unfilled map allocated %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m = Make[uint64, int](HashU64, 64)
		for i := 0; i < 64; i++ {
			m.Put(uint64(i*7), i)
		}
	}); allocs != 1 {
		t.Fatalf("filling a map to its size hint allocated %.1f times, want 1", allocs)
	}
	for i := 0; i < 64; i++ {
		if v, ok := m.Get(uint64(i * 7)); !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", i*7, v, ok, i)
		}
	}
}

// TestSharded exercises the sharded wrapper across enough keys to hit every
// shard.
func TestSharded(t *testing.T) {
	s := NewSharded[uint64, int](HashU64, 0)
	const n = 50000
	for i := uint64(0); i < n; i++ {
		s.Put(i, int(i)*2)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := uint64(0); i < n; i += 17 {
		if v, ok := s.Get(i); !ok || v != int(i)*2 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	for i := uint64(0); i < n; i += 2 {
		if !s.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if s.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", s.Len(), n/2)
	}
	seen := 0
	s.Range(func(k uint64, v int) bool {
		if k%2 == 0 || v != int(k)*2 {
			t.Fatalf("Range visited wrong entry %d=%d", k, v)
		}
		seen++
		return true
	})
	if seen != n/2 {
		t.Fatalf("Range visited %d entries, want %d", seen, n/2)
	}
}

// TestHashStringDistinct is a sanity check that the string hash separates
// realistic dirent names.
func TestHashStringDistinct(t *testing.T) {
	seen := make(map[uint64]string)
	for i := 0; i < 10000; i++ {
		s := fmt.Sprintf("f%07d", i)
		h := HashString(s)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %q and %q", prev, s)
		}
		seen[h] = s
	}
}

// TestMapSteadyStateAllocs pins the flat-allocation property: operations on
// a pre-grown table allocate nothing.
func TestMapSteadyStateAllocs(t *testing.T) {
	m := New[uint64, int](HashU64, 0)
	for i := uint64(0); i < 1000; i++ {
		m.Put(i, int(i))
	}
	var k uint64
	allocs := testing.AllocsPerRun(100, func() {
		m.Put(k%1000, 1)    // existing key
		m.Get(k % 1000)     // hit
		m.Get(k%1000 + 1e9) // miss
		m.Delete(k%1000 + 1e9)
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state table ops allocated %.1f/op, want 0", allocs)
	}
}

func BenchmarkMapGet(b *testing.B) {
	m := New[uint64, int](HashU64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		m.Put(i, int(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i) & (1<<16 - 1))
	}
}

func BenchmarkGoMapGet(b *testing.B) {
	m := make(map[uint64]int, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		m[i] = int(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[uint64(i)&(1<<16-1)]
	}
}
