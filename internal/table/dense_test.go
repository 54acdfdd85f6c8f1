package table

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// TestDenseBasic exercises put/get/delete/replace against a reference map
// through a churn history that issues numbers in increasing order and
// deletes at random behind the frontier, the way a server's inodes live.
func TestDenseBasic(t *testing.T) {
	d := NewDense[int]()
	ref := make(map[uint64]int)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var issued uint64
	for i := 0; i < 20000; i++ {
		switch next() % 4 {
		case 0, 1:
			*d.Put(issued) = i
			ref[issued] = i
			issued++
		case 2:
			if issued == 0 {
				continue
			}
			k := next() % issued
			got := d.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		case 3: // replace a live value
			if issued == 0 {
				continue
			}
			k := next() % issued
			if _, ok := ref[k]; ok {
				v := d.Put(k)
				if *v != 0 {
					t.Fatalf("step %d: Put(%d) returned a slot holding %d", i, k, *v)
				}
				*v = -i
				ref[k] = -i
			}
		}
	}
	if d.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
	}
	for k := uint64(0); k < issued; k++ {
		v, ok := d.Get(k)
		want, inRef := ref[k]
		if ok != inRef || (ok && *v != want) {
			t.Fatalf("Get(%d) = %v, want %d,%v", k, ok, want, inRef)
		}
	}
}

// TestDenseHostileNumber: a number decoded from a log, a snapshot or the
// wire costs one page however large it is — it is a key, never a size.
func TestDenseHostileNumber(t *testing.T) {
	putInto := func(k uint64) func() {
		return func() { NewDense[[10]uint64]().Put(k)[0] = 1 }
	}
	if small, huge := testing.AllocsPerRun(20, putInto(5)), testing.AllocsPerRun(20, putInto(1<<63)); huge != small {
		t.Fatalf("a fresh table allocated %.0f times for 1<<63 and %.0f for 5", huge, small)
	}
	d := NewDense[[10]uint64]()
	d.Put(1 << 63)[0] = 7
	d.Put(^uint64(0))[0] = 9
	if d.pages.Len() != 2 || d.Len() != 2 || len(d.pages.slots) != minCap {
		t.Fatalf("%d pages for %d values in %d page slots, want 2, 2 and %d", d.pages.Len(), d.Len(), len(d.pages.slots), minCap)
	}
	if v, ok := d.Get(1 << 63); !ok || v[0] != 7 {
		t.Fatalf("Get(1<<63) = %v, %v", v, ok)
	}
	if _, ok := d.Get(1<<62 + 5); ok {
		t.Fatal("Get found a number never stored")
	}
	if d.Delete(1<<62) || !d.Delete(1<<63) {
		t.Fatal("Delete reported the wrong presence")
	}
	if d.pages.Len() != 1 {
		t.Fatalf("%d pages after the lower page emptied, want 1", d.pages.Len())
	}
}

// TestDenseDeletedSlotNeverReused: a deleted value's slot is never handed
// out again, and keeps its contents for whoever still holds it — a request
// parked over an inode that another request unlinked.
func TestDenseDeletedSlotNeverReused(t *testing.T) {
	d := NewDense[uint64]()
	held := make(map[*uint64]uint64)
	for k := uint64(0); k < 1000; k++ {
		v := d.Put(k)
		*v = k + 1
		if k%3 == 0 {
			held[v] = k + 1
			d.Delete(k)
		}
	}
	for k := uint64(1000); k < 3000; k++ {
		v := d.Put(k)
		if _, again := held[v]; again {
			t.Fatalf("Put(%d) handed out a deleted slot", k)
		}
		*v = 0xdead
		d.Delete(k)
	}
	for v, want := range held {
		if *v != want {
			t.Fatalf("a deleted slot changed: %d, want %d", *v, want)
		}
	}
}

// TestDenseRangeAscending: Range walks in ascending number order, and two
// histories that reach the same contents walk alike — whichever pages they
// allocated and released on the way.
func TestDenseRangeAscending(t *testing.T) {
	walk := func(d *Dense[uint64]) []uint64 {
		var out []uint64
		d.Range(func(k uint64, v *uint64) bool {
			if *v != k*2 {
				t.Fatalf("Range gave %d for %d", *v, k)
			}
			out = append(out, k)
			return true
		})
		return out
	}
	// One history creates the survivors alone; the other interleaves
	// hundreds of pages of numbers it deletes again, in another order.
	a, b := NewDense[uint64](), NewDense[uint64]()
	var want []uint64
	for k := uint64(0); k < 5000; k++ {
		if k%7 == 0 || (k > 3000 && k < 3100) {
			want = append(want, k)
		}
	}
	for _, k := range want {
		*a.Put(k) = k * 2
	}
	for k := uint64(0); k < 5000; k++ {
		*b.Put(k) = k * 2
	}
	for k := uint64(4999); k < 5000; k-- {
		if !slices.Contains(want, k) {
			b.Delete(k)
		}
	}
	ga, gb := walk(a), walk(b)
	if !slices.Equal(ga, want) || !slices.Equal(gb, want) {
		t.Fatalf("walks differ from the ascending contents: %d, %d and %d numbers", len(ga), len(gb), len(want))
	}
	n := 0
	a.Range(func(uint64, *uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range went on after fn returned false: %d calls", n)
	}
}

// TestDenseChurnAllocs: creating and deleting consecutive numbers — a
// server's create/unlink churn — allocates at most one page per pageSlots
// numbers. Releasing the empty page that still receives numbers would
// allocate a page per create.
func TestDenseChurnAllocs(t *testing.T) {
	d := NewDense[[10]uint64]()
	*d.Put(1) = [10]uint64{1} // a survivor, as the root directory is
	const n = 64 * 256
	// Mallocs counts the whole process: with the collector off and one P, no
	// GC cycle or other goroutine adds its own allocations to the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := uint64(2); k < 2+n; k++ {
		d.Put(k)[0] = k
		if !d.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > n/pageSlots+1 {
		t.Fatalf("%d allocations for %d create/delete pairs, want at most one page per %d numbers (%d)",
			got, n, pageSlots, n/pageSlots+1)
	}
	if d.Len() != 1 || d.pages.Len() != 2 {
		t.Fatalf("%d values on %d pages, want the survivor's page and the top page", d.Len(), d.pages.Len())
	}
	// Warm: a number on the top page costs nothing.
	k := uint64(2 + n)
	d.Put(k)
	if allocs := testing.AllocsPerRun(32, func() {
		k++
		d.Put(k)
		d.Get(k)
		d.Delete(k - 1)
	}); allocs > 1.0/16 {
		t.Fatalf("Put/Get/Delete on a live page allocated %.2f/op", allocs)
	}
}
