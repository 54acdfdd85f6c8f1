package table

import (
	"math/bits"
	"slices"
)

// Dense holds values in place, keyed by numbers that are issued in
// increasing order and never reused — a server's local inode numbers. It is
// a slab (Bonwick, USENIX Summer 1994) over a dense number space: values live
// in pages of pageSlots, found through a Map keyed by page number, so memory
// follows the live pages and a number, however large, never sizes an
// allocation.
//
// A slot is never moved: the *V that Get and Put return stays valid for as
// long as its holder keeps it, and since numbers are never reused it keeps
// naming the same value after a Delete — which releases the slot without
// touching its contents. An empty page is released, unless it holds the
// highest number stored so far: that page still receives new numbers, and
// releasing it would allocate a page per create under create/delete churn.
// The zero value is not ready for use; call NewDense.
type Dense[V any] struct {
	pages *Map[uint64, *densePage[V]]
	// top is the page holding the highest number stored so far (topNo its
	// page number); nil before the first Put.
	top   *densePage[V]
	topNo uint64
	n     int
}

// pageShift sets pageSlots, the values a page holds: one bit each in used.
const (
	pageShift = 6
	pageSlots = 1 << pageShift
)

type densePage[V any] struct {
	used  uint64
	slots [pageSlots]V
}

// NewDense returns an empty table.
func NewDense[V any]() *Dense[V] {
	return &Dense[V]{pages: New[uint64, *densePage[V]](HashU64, 0)}
}

// Len returns the number of values stored.
func (d *Dense[V]) Len() int { return d.n }

// Get returns the slot stored under k.
func (d *Dense[V]) Get(k uint64) (*V, bool) {
	p, ok := d.pages.Get(k >> pageShift)
	if !ok || p.used&(1<<(k&(pageSlots-1))) == 0 {
		return nil, false
	}
	return &p.slots[k&(pageSlots-1)], true
}

// Put stores a value under k and returns its slot, zeroed for the caller to
// fill. A value already stored under k is replaced.
func (d *Dense[V]) Put(k uint64) *V {
	no := k >> pageShift
	p, ok := d.pages.Get(no)
	if !ok {
		p = new(densePage[V])
		d.pages.Put(no, p)
	}
	if d.top == nil || no > d.topNo {
		// The old top page stops receiving numbers: it goes if empty.
		if d.top != nil && d.top.used == 0 {
			d.pages.Delete(d.topNo)
		}
		d.top, d.topNo = p, no
	}
	bit := uint64(1) << (k & (pageSlots - 1))
	if p.used&bit == 0 {
		p.used |= bit
		d.n++
	}
	s := &p.slots[k&(pageSlots-1)]
	var zero V
	*s = zero
	return s
}

// Delete removes the value under k, reporting whether it was present. The
// slot keeps its contents for whoever still holds it.
func (d *Dense[V]) Delete(k uint64) bool {
	no := k >> pageShift
	p, ok := d.pages.Get(no)
	bit := uint64(1) << (k & (pageSlots - 1))
	if !ok || p.used&bit == 0 {
		return false
	}
	p.used &^= bit
	d.n--
	if p.used == 0 && p != d.top {
		d.pages.Delete(no)
	}
	return true
}

// Range calls fn on every value in ascending number order until fn returns
// false, so the walk depends only on the contents, not on the history that
// reached them. It sorts the page numbers: it is for checkpoints and
// reclaim, not hot paths. The table must not be mutated during the walk.
func (d *Dense[V]) Range(fn func(uint64, *V) bool) {
	nos := make([]uint64, 0, d.pages.Len())
	d.pages.Range(func(no uint64, _ *densePage[V]) bool {
		nos = append(nos, no)
		return true
	})
	slices.Sort(nos)
	for _, no := range nos {
		p, _ := d.pages.Get(no)
		for used := p.used; used != 0; used &= used - 1 {
			i := bits.TrailingZeros64(used)
			if !fn(no<<pageShift|uint64(i), &p.slots[i]) {
				return
			}
		}
	}
}
