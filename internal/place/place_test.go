package place

import (
	"bytes"
	"testing"
)

// keySeed seeds the deterministic pseudo-random key stream the property
// tests route through the placement maps.
const keySeed = uint64(0x9E3779B97F4A7C15)

// keys generates n deterministic pseudo-random keys (the tests must be
// reproducible across runs). The seed lands in the test log so a failure is
// replayable as-is.
func keys(t *testing.T, n int) []uint64 {
	t.Helper()
	t.Logf("placement key-stream seed: %#x (n=%d)", keySeed, n)
	out := make([]uint64, n)
	state := keySeed
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = state
	}
	return out
}

// TestModuloBitForBit pins PolicyModulo to the paper's routing: over the
// contiguous boot-time member set, Route(k) must equal k % N exactly, so the
// placement layer is a pure refactor in the static case.
func TestModuloBitForBit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 40} {
		m := Initial(PolicyModulo, n)
		if m.Epoch() != 1 {
			t.Fatalf("initial epoch = %d, want 1", m.Epoch())
		}
		for _, k := range keys(t, 5000) {
			if got, want := m.Route(k), int32(k%uint64(n)); got != want {
				t.Fatalf("n=%d key=%d: Route=%d, want %d", n, k, got, want)
			}
		}
	}
}

// TestRingBalance checks the consistent-hashing ring stays balanced at the
// default 64 vnodes: with many keys, no member's share exceeds 1.6x the mean
// and none falls below 0.5x.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		m := Initial(PolicyRing, n)
		counts := make(map[int32]int)
		ks := keys(t, 40000)
		for _, k := range ks {
			counts[m.Route(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members received keys", n, len(counts))
		}
		mean := float64(len(ks)) / float64(n)
		for id, c := range counts {
			ratio := float64(c) / mean
			if ratio > 1.6 || ratio < 0.5 {
				t.Fatalf("n=%d: server %d holds %.2fx the mean load (want within [0.5, 1.6])", n, id, ratio)
			}
		}
	}
}

// TestRingMembershipMovesBoundedKeys checks the consistent-hashing
// contract: adding one server to an N-member ring moves at most 2/(N+1) of
// the keys, and every moved key lands on the new server; removing a server
// moves exactly the removed server's keys.
func TestRingMembershipMovesBoundedKeys(t *testing.T) {
	const n = 8
	old := Initial(PolicyRing, n)
	grown := old.Add(int32(n))
	if grown.Epoch() != old.Epoch()+1 {
		t.Fatalf("Add epoch = %d, want %d", grown.Epoch(), old.Epoch()+1)
	}
	ks := keys(t, 40000)
	moved := 0
	for _, k := range ks {
		a, b := old.Route(k), grown.Route(k)
		if a != b {
			moved++
			if b != int32(n) {
				t.Fatalf("key %d moved from %d to %d, not to the new server", k, a, b)
			}
		}
	}
	bound := 2 * len(ks) / (n + 1)
	if moved > bound {
		t.Fatalf("add moved %d/%d keys, bound is %d (2/(N+1))", moved, len(ks), bound)
	}
	if moved == 0 {
		t.Fatal("add moved no keys; the new server receives no load")
	}

	// Removing the server we just added must move exactly its keys back,
	// and nothing else.
	shrunk := grown.Remove(int32(n))
	for _, k := range ks {
		if grown.Route(k) != int32(n) && shrunk.Route(k) != grown.Route(k) {
			t.Fatalf("key %d moved although its owner %d was not removed", k, grown.Route(k))
		}
		if grown.Route(k) == int32(n) && shrunk.Route(k) == int32(n) {
			t.Fatalf("key %d still routes to the removed server", k)
		}
	}
}

// TestModuloMovesAlmostEverything documents why modulo cannot scale online:
// a membership change reshuffles the bulk of the key space. (Not a bug; the
// contrast with the ring is the point of the policy split.)
func TestModuloMovesAlmostEverything(t *testing.T) {
	old := Initial(PolicyModulo, 8)
	grown := old.Add(8)
	ks := keys(t, 20000)
	moved := 0
	for _, k := range ks {
		if old.Route(k) != grown.Route(k) {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(ks)); frac < 0.5 {
		t.Fatalf("modulo add moved only %.0f%% of keys; expected the bulk to move", frac*100)
	}
}

// TestEncodeDecodeRoundTrip checks the wire form reproduces the routing
// function exactly (servers decode the map from SHARD_PULL/COMMIT payloads
// and must agree with the orchestrator on every route).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, policy := range []Policy{PolicyModulo, PolicyRing} {
		m := New(policy, []int32{0, 2, 3, 7}, 9)
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", policy, err)
		}
		if got.Epoch() != m.Epoch() || got.Policy() != m.Policy() || got.NumMembers() != m.NumMembers() {
			t.Fatalf("%v: header mismatch after round trip", policy)
		}
		for _, k := range keys(t, 5000) {
			if got.Route(k) != m.Route(k) {
				t.Fatalf("%v: decoded map routes key %d to %d, original to %d", policy, k, got.Route(k), m.Route(k))
			}
		}
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated map decoded without error")
	}
}

// TestContains exercises membership lookup over a sparse member set.
func TestContains(t *testing.T) {
	m := New(PolicyRing, []int32{0, 2, 5}, 3)
	for id, want := range map[int32]bool{0: true, 1: false, 2: true, 3: false, 5: true, 6: false} {
		if m.Contains(id) != want {
			t.Fatalf("Contains(%d) = %v, want %v", id, m.Contains(id), want)
		}
	}
}

// FuzzDecodeMap: no input panics Decode, and whatever decodes is a map New
// builds — it encodes back to exactly the bytes it came from and routes every
// key as New does over the same members — since a map arrives from the wire
// in SHARD_PULL and SHARD_COMMIT.
func FuzzDecodeMap(f *testing.F) {
	for _, p := range []Policy{PolicyModulo, PolicyRing} {
		f.Add(New(p, []int32{0, 2, 3, 7}, 9).Encode())
		f.Add(Initial(p, 1).Encode())
	}
	f.Add(New(PolicyModulo, nil, 2).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		if got := m.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("decoded map encodes as %x, came from %x", got, b)
		}
		want := New(m.Policy(), m.Members(), m.Epoch())
		for _, k := range keys(t, 256) {
			if m.Route(k) != want.Route(k) {
				t.Fatalf("decoded map routes key %d to %d, New to %d", k, m.Route(k), want.Route(k))
			}
		}
	})
}
