package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/place"
	"repro/internal/repl"
)

// parallelCases are the tuples the cross-engine equivalence gate runs: the
// default schedule (crashes, lossy crashes, migrate-crashes, checkpoints,
// membership churn), a sync-replication schedule (failover events: double
// failures, staged follower deaths, promotions over interrupted migrations),
// and a ring-policy variant so consistent-hash migration paths ride along.
func parallelCases() []Config {
	sync := DefaultConfig(7)
	sync.Replication = repl.Sync
	ring := DefaultConfig(1111111)
	ring.Policy = place.PolicyRing
	ringSync := DefaultConfig(99)
	ringSync.Policy = place.PolicyRing
	ringSync.Replication = repl.Sync
	return []Config{DefaultConfig(42), sync, ring, ringSync}
}

// TestChaosParallelEquivalence runs each case once per engine and requires
// byte-identical final namespaces: the parallel engine must not reorder
// anything observable even with the full control plane — replication
// shipping, failover promotion, crash/recovery, and shard migration — on the
// schedule (DESIGN.md §13).
func TestChaosParallelEquivalence(t *testing.T) {
	for _, base := range parallelCases() {
		base.Snapshot = true
		bits := TechBits(base.Techniques)
		t.Run(strings.Replace(base.Tuple(), ","+bits+",", ","+gateBits(base.Techniques)+",", 1), func(t *testing.T) {
			snaps := make(map[bool]map[string]string)
			for _, parallel := range []bool{false, true} {
				cfg := base
				cfg.Parallel = parallel
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("parallel=%v: %v", parallel, err)
				}
				if len(rep.Namespace) == 0 {
					t.Fatalf("parallel=%v: empty namespace snapshot", parallel)
				}
				snaps[parallel] = rep.Namespace
			}
			if !reflect.DeepEqual(snaps[false], snaps[true]) {
				t.Fatalf("tuple %s: %s", base.Tuple(), diffNamespaces(snaps[false], snaps[true]))
			}
		})
	}
}

// diffNamespaces renders the first few divergent entries between the
// serialized and parallel snapshots.
func diffNamespaces(serial, parallel map[string]string) string {
	paths := make(map[string]struct{}, len(serial))
	for p := range serial {
		paths[p] = struct{}{}
	}
	for p := range parallel {
		paths[p] = struct{}{}
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	out := "serialized and parallel namespaces diverge:"
	shown := 0
	for _, p := range sorted {
		s, sok := serial[p]
		q, qok := parallel[p]
		if sok && qok && s == q {
			continue
		}
		out += fmt.Sprintf("\n  %s:\n    serialized: %.80q (present=%v)\n    parallel:   %.80q (present=%v)", p, s, sok, q, qok)
		if shown++; shown >= 8 {
			out += "\n  ..."
			break
		}
	}
	return out
}
