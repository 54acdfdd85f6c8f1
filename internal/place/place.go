// Package place is the placement layer: it decides which file server stores
// each directory-entry shard of a distributed directory.
//
// The paper pins the server count at boot and routes entries with
// hash(dir, name) % NSERVERS. This package extracts that decision into a
// first-class, epoch-versioned Map so the deployment can grow and shrink
// while running (DESIGN.md §9): every map carries a monotonically increasing
// epoch, requests are stamped with the epoch they were routed under, and a
// server that has moved on answers EEPOCH so the client refreshes its cached
// map and retries. Two policies are provided:
//
//   - PolicyModulo reproduces the paper's routing bit-for-bit when the
//     member set is the contiguous range [0, N): hash % N. Membership
//     changes under modulo reshuffle almost every key (the reason the paper
//     cannot scale online).
//   - PolicyRing is consistent hashing with virtual nodes: adding one server
//     to an N-server ring moves only ~1/(N+1) of the keys, all of them onto
//     the new server, so elastic scaling has bounded data movement.
//
// Inodes are NOT placed by this package and never migrate: an InodeID
// permanently names (server, local). Only directory-entry shards move.
package place

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Policy selects how a Map assigns keys to member servers.
type Policy uint8

// Placement policies.
const (
	// PolicyModulo is the paper's static routing: key % members. Cheap and
	// perfectly balanced, but a membership change moves ~(N-1)/N of all keys.
	PolicyModulo Policy = iota
	// PolicyRing is consistent hashing over virtual nodes: a membership
	// change of one server moves only ~1/N of the keys.
	PolicyRing
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyModulo:
		return "modulo"
	case PolicyRing:
		return "ring"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// DefaultVnodes is the number of virtual nodes each member contributes to a
// ring map, in every map: the encoding carries it and Decode refuses any
// other. 64 keeps the max/mean load ratio within ~1.5 at realistic member
// counts (see the balance property test) while the ring stays small enough
// to rebuild on every membership change.
const DefaultVnodes = 64

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash   uint64
	server int32
}

// Map is one immutable epoch of the placement function: it routes a key (the
// directory-entry hash) to a member server. Maps are value-like: membership
// changes produce a new Map with the next epoch via Add/Remove.
type Map struct {
	epoch   uint64
	policy  Policy
	members []int32 // sorted ascending
	ring    []ringPoint
	// lut buckets the ring by the top bits of the key: lut[b] is the index
	// of the first virtual node whose hash >= b<<lutShift. Route starts at
	// that index and scans forward, turning the per-key binary search into a
	// constant-time lookup plus a walk of ~1 ring point on average.
	lut      []int32
	lutShift uint
}

// New builds a map at the given epoch. Members are copied, sorted, and
// deduplicated; epochs start at 1 by convention (0 on the wire means "not
// routed through a placement map").
func New(policy Policy, members []int32, epoch uint64) *Map {
	m := &Map{epoch: epoch, policy: policy}
	seen := make(map[int32]bool, len(members))
	for _, id := range members {
		if !seen[id] {
			seen[id] = true
			m.members = append(m.members, id)
		}
	}
	sort.Slice(m.members, func(i, j int) bool { return m.members[i] < m.members[j] })
	m.buildRing()
	return m
}

// Initial builds the boot-time map (epoch 1) over servers [0, n).
func Initial(policy Policy, n int) *Map {
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	return New(policy, members, 1)
}

// buildRing materializes the virtual-node ring for PolicyRing.
func (m *Map) buildRing() {
	if m.policy != PolicyRing {
		m.ring, m.lut = nil, nil
		return
	}
	m.ring = make([]ringPoint, 0, len(m.members)*DefaultVnodes)
	for _, id := range m.members {
		for r := 0; r < DefaultVnodes; r++ {
			h := mix64(uint64(uint32(id))<<32 | uint64(r))
			m.ring = append(m.ring, ringPoint{hash: h, server: id})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.ring[i].server < m.ring[j].server
	})
	m.buildLUT()
}

// buildLUT precomputes the bucket table over the sorted ring. With ~2 buckets
// per virtual node (capped at 1<<20 buckets) each bucket covers at most a few
// ring points, so Route's forward scan is O(1) expected.
func (m *Map) buildLUT() {
	if len(m.ring) == 0 {
		m.lut = nil
		return
	}
	n := 1
	for n < 2*len(m.ring) && n < 1<<20 {
		n *= 2
	}
	shift := uint(64)
	for 1<<(64-shift) < n {
		shift--
	}
	m.lutShift = shift
	m.lut = make([]int32, n)
	i := 0
	for b := 0; b < n; b++ {
		lo := uint64(b) << shift
		for i < len(m.ring) && m.ring[i].hash < lo {
			i++
		}
		m.lut[b] = int32(i)
	}
}

// mix64 is SplitMix64's finalizer: a cheap, well-distributed 64-bit mixer
// used to spread virtual nodes around the ring.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Epoch returns the map's version.
func (m *Map) Epoch() uint64 { return m.epoch }

// Policy returns the map's placement policy.
func (m *Map) Policy() Policy { return m.policy }

// Members returns a copy of the member server ids (sorted).
func (m *Map) Members() []int32 {
	out := make([]int32, len(m.members))
	copy(out, m.members)
	return out
}

// MembersRef returns the map's own member slice (sorted ascending) without
// copying. The caller must treat it as read-only; it is shared with every
// other caller and with the map's routing state.
func (m *Map) MembersRef() []int32 { return m.members }

// NumMembers returns the number of member servers.
func (m *Map) NumMembers() int { return len(m.members) }

// Contains reports whether server id is a member.
func (m *Map) Contains(id int32) bool {
	i := sort.Search(len(m.members), func(i int) bool { return m.members[i] >= id })
	return i < len(m.members) && m.members[i] == id
}

// Route returns the member server that owns key. It panics on an empty map
// (a deployment always has at least one server).
func (m *Map) Route(key uint64) int32 {
	if len(m.members) == 0 {
		panic("place: routing on an empty map")
	}
	if m.policy == PolicyRing {
		// Re-mix the key before placing it on the ring: the entry hash
		// (FNV-1a) differs mostly in low bits for similar names, which
		// modulo tolerates but a ring — which uses the value as a
		// *position* — does not; unmixed, sequential names cluster on one
		// arc and defeat both balance and bounded movement.
		key = mix64(key)
		// First virtual node clockwise from the key, wrapping at the top:
		// the bucket table lands within a few points of the answer and the
		// scan finishes the job without a binary search.
		i := int(m.lut[key>>m.lutShift])
		for i < len(m.ring) && m.ring[i].hash < key {
			i++
		}
		if i == len(m.ring) {
			i = 0
		}
		return m.ring[i].server
	}
	// Modulo over the sorted member list; for the contiguous boot-time set
	// [0, N) this is exactly the paper's hash % NSERVERS.
	return m.members[key%uint64(len(m.members))]
}

// Add returns the next epoch's map with server id joined.
func (m *Map) Add(id int32) *Map {
	return New(m.policy, append(m.Members(), id), m.epoch+1)
}

// WithEpoch returns a copy of the map at the given epoch with unchanged
// membership. Failover promotions use it to advance the epoch — forcing
// every client through an EEPOCH refresh onto the promoted server — without
// a membership change (DESIGN.md §12).
func (m *Map) WithEpoch(e uint64) *Map {
	return New(m.policy, m.Members(), e)
}

// Remove returns the next epoch's map with server id drained out.
func (m *Map) Remove(id int32) *Map {
	members := make([]int32, 0, len(m.members))
	for _, s := range m.members {
		if s != id {
			members = append(members, s)
		}
	}
	return New(m.policy, members, m.epoch+1)
}

// Encode serializes the map for the wire (SHARD_PULL/SHARD_COMMIT payloads)
// and for write-ahead-log epoch records: epoch, policy, the vnode count, and
// the members ascending.
func (m *Map) Encode() []byte {
	b := wire.AppendU64(make([]byte, 0, 17+4*len(m.members)), m.epoch)
	b = wire.AppendU8(b, uint8(m.policy))
	b = wire.AppendU32(b, DefaultVnodes)
	b = wire.AppendU32(b, uint32(len(m.members)))
	for _, id := range m.members {
		b = wire.AppendI32(b, id)
	}
	return b
}

// Decode parses an encoded map. It accepts only what Encode writes for a map
// New builds: a known policy, DefaultVnodes, at least one member, members
// strictly ascending, and nothing after them. The bytes come off the wire
// (SHARD_PULL, SHARD_COMMIT) and a map that routes nowhere, or a vnode count
// that sizes the ring, must not get through to a server.
func Decode(b []byte) (*Map, error) {
	d := wire.NewDecoder(b)
	epoch := d.U64()
	policy := Policy(d.U8())
	vnodes := d.U32()
	members := make([]int32, d.Count(4))
	for i := range members {
		members[i] = d.I32()
	}
	if err := d.Finish("place: decoding map"); err != nil {
		return nil, err
	}
	ascending := true
	for i := 1; i < len(members); i++ {
		ascending = ascending && members[i-1] < members[i]
	}
	if policy > PolicyRing || vnodes != DefaultVnodes || len(members) == 0 || !ascending || d.Remaining() != 0 {
		return nil, fmt.Errorf("place: not a map New builds (%v, %d vnodes, %d members, ascending %v, %d bytes after them)",
			policy, vnodes, len(members), ascending, d.Remaining())
	}
	return New(policy, members, epoch), nil
}
