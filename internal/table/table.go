// Package table provides open-addressing hash tables used on the harness's
// hot paths in place of built-in Go maps (DESIGN.md §13).
//
// Three properties matter to the harness:
//
//   - Deterministic iteration. Range visits slots in backing-array order,
//     which is a pure function of the operation history — unlike Go map
//     iteration, which is deliberately randomized per run. Server-side
//     fan-outs that iterate a table (invalidation broadcasts, checkpoint
//     encoding) therefore happen in a reproducible order.
//   - Flat allocation. A table is one slot array; growth is the only
//     allocation, and a Put into an existing or free slot allocates
//     nothing. Values are stored inline.
//   - Bounded rehash pauses at scale via Sharded, which splits the key
//     space across fixed sub-tables so each rehash touches 1/shards of the
//     entries.
//
// Dense (dense.go) is the table for a number space issued in increasing
// order and never reused — a server's inodes: values live in place in pages
// of 64, and Range walks in ascending number order. Names (names.go) is the
// byte slab a directory shard's string keys live in.
//
// Deletion uses backward-shift compaction (no tombstones), so probe
// sequences stay short regardless of churn.
package table

// Map is an open-addressing hash table with linear probing over a
// power-of-two slot array. The zero value is not ready for use; call New, or
// Make for a map held by value. Neither allocates slots until the first Put.
type Map[K comparable, V any] struct {
	hash  func(K) uint64
	slots []slot[K, V]
	used  int
	mask  uint64
}

type slot[K comparable, V any] struct {
	key  K
	val  V
	full bool
}

// minCap is the smallest slot-array size; small tables (per-directory entry
// shards, per-client caches) dominate, so start compact.
const minCap = 8

// New returns an empty map using the given hash function. sizeHint, when
// positive, pre-sizes the table to hold that many entries without growing.
// Like Make's, its slot array is made by its first Put.
func New[K comparable, V any](hash func(K) uint64, sizeHint int) *Map[K, V] {
	m := Make[K, V](hash, sizeHint)
	return &m
}

// Make returns an empty map by value, sized as sizeHint asks, whose slot
// array is made by its first Put: until then it holds no memory of its own,
// Get and Delete miss and Range visits nothing. A map many holders may never
// fill — each process's directory and version caches — costs nothing there
// (Bonwick, USENIX Summer 1994: construction paid only for state that is
// used).
func Make[K comparable, V any](hash func(K) uint64, sizeHint int) Map[K, V] {
	n := minCap
	for n*4 < sizeHint*5 { // initial load factor <= 0.8 of the hint
		n *= 2
	}
	return Map[K, V]{hash: hash, mask: uint64(n - 1)}
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.used }

// Get returns the value stored under key. The probe runs while its slot is
// inside the array, which ends it at once on a map whose slots are not made
// yet, and spares the bounds check each probe would make anyway.
func (m *Map[K, V]) Get(key K) (V, bool) {
	slots, mask := m.slots, m.mask
	for i := m.hash(key) & mask; i < uint64(len(slots)); i = (i + 1) & mask {
		s := &slots[i]
		if !s.full {
			break
		}
		if s.key == key {
			return s.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores val under key, replacing any existing entry's value; an entry
// already present keeps the key it was stored under, so a caller may pass an
// equal key it does not own (a string borrowed from a buffer).
func (m *Map[K, V]) Put(key K, val V) {
	if m.slots == nil {
		m.slots = make([]slot[K, V], m.mask+1)
	}
	if (m.used+1)*4 > len(m.slots)*3 { // grow at 75% load
		m.grow()
	}
	i := m.hash(key) & m.mask
	for {
		s := &m.slots[i]
		if !s.full {
			s.key = key
			s.val = val
			s.full = true
			m.used++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
		i = (i + 1) & m.mask
	}
}

// Delete removes the entry under key, reporting whether it was present.
// The cluster after the removed slot is compacted by backward shifting, so
// the table never accumulates tombstones.
func (m *Map[K, V]) Delete(key K) bool {
	slots, mask := m.slots, m.mask
	i := m.hash(key) & mask
	for ; ; i = (i + 1) & mask {
		if i >= uint64(len(slots)) || !slots[i].full {
			return false // as in Get
		}
		if slots[i].key == key {
			break
		}
	}
	m.used--
	// Backward-shift: walk the cluster after i; any entry whose home slot
	// does not lie in (i, j] can be moved into the hole.
	j := i
	for {
		m.slots[j] = slot[K, V]{}
		next := j
		for {
			next = (next + 1) & m.mask
			s := &m.slots[next]
			if !s.full {
				return true
			}
			home := m.hash(s.key) & m.mask
			// s can fill the hole at j unless its home lies strictly inside
			// the wrapped interval (j, next].
			if !between(home, j, next) {
				m.slots[j] = *s
				j = next
				break
			}
		}
	}
}

// between reports whether home lies in the wrapped half-open interval
// (hole, cur].
func between(home, hole, cur uint64) bool {
	if hole < cur {
		return home > hole && home <= cur
	}
	return home > hole || home <= cur
}

// Range calls fn on every entry in slot order (deterministic for a given
// operation history) until fn returns false. The table must not be mutated
// during the walk.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	for i := range m.slots {
		if m.slots[i].full {
			if !fn(m.slots[i].key, m.slots[i].val) {
				return
			}
		}
	}
}

// Rekey replaces every stored key with fn(key), which must equal it — a copy
// in other memory (Names). No entry moves, so Range's order is unchanged.
func (m *Map[K, V]) Rekey(fn func(K) K) {
	for i := range m.slots {
		if m.slots[i].full {
			m.slots[i].key = fn(m.slots[i].key)
		}
	}
}

// Clear removes every entry, keeping the backing array.
func (m *Map[K, V]) Clear() {
	clear(m.slots)
	m.used = 0
}

func (m *Map[K, V]) grow() {
	old := m.slots
	m.slots = make([]slot[K, V], len(old)*2)
	m.mask = uint64(len(m.slots) - 1)
	m.used = 0
	for i := range old {
		if old[i].full {
			m.Put(old[i].key, old[i].val)
		}
	}
}

// Sharded splits the key space across a fixed number of sub-tables by hash,
// bounding the cost of any single rehash to one shard. Its one user is the
// repository benchmark's table.sharded_get_ns probe.
type Sharded[K comparable, V any] struct {
	hash   func(K) uint64
	shards []*Map[K, V]
	shift  uint
}

// shardCount must be a power of two.
const shardCount = 16

// NewSharded returns an empty sharded map.
func NewSharded[K comparable, V any](hash func(K) uint64, sizeHint int) *Sharded[K, V] {
	s := &Sharded[K, V]{
		hash:   hash,
		shards: make([]*Map[K, V], shardCount),
		shift:  64 - 4, // top log2(shardCount) bits pick the shard
	}
	for i := range s.shards {
		s.shards[i] = New[K, V](hash, sizeHint/shardCount)
	}
	return s
}

func (s *Sharded[K, V]) shard(key K) *Map[K, V] {
	return s.shards[s.hash(key)>>s.shift]
}

// Get returns the value stored under key.
func (s *Sharded[K, V]) Get(key K) (V, bool) { return s.shard(key).Get(key) }

// Put stores val under key.
func (s *Sharded[K, V]) Put(key K, val V) { s.shard(key).Put(key, val) }

// Delete removes the entry under key, reporting whether it was present.
func (s *Sharded[K, V]) Delete(key K) bool { return s.shard(key).Delete(key) }

// Len returns the number of entries across all shards.
func (s *Sharded[K, V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.used
	}
	return n
}

// Range calls fn on every entry, walking shards in index order and each
// shard in slot order (deterministic for a given operation history).
func (s *Sharded[K, V]) Range(fn func(K, V) bool) {
	for _, sh := range s.shards {
		stop := false
		sh.Range(func(k K, v V) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// HashU64 is a SplitMix64-style finalizer: a cheap, well-mixing hash for
// integer keys.
func HashU64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString is FNV-1a over the string bytes, finalized with HashU64 so the
// top bits (shard selectors) are well mixed.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return HashU64(h)
}
