package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/place"
	"repro/internal/repl"
)

// countFailovers tallies the plan's failover events by variant.
func countFailovers(p *Plan) (total, double, staged, lose int) {
	for _, ev := range p.Events {
		if ev.Kind != EvFailover {
			continue
		}
		total++
		if ev.Double {
			double++
		}
		if ev.Stage != "" {
			staged++
		}
		if ev.Lose {
			lose++
		}
	}
	return
}

// TestChaosFailoverSmoke is the failover chaos gate: sampled technique ×
// placement configurations under sync replication, with crash-and-promote
// failover events on the schedule — including double failures and
// follower-dies-mid-promotion — every quiescent point conformance-checked
// against the shadow model and every promotion checked for zero acked-write
// loss.
func TestChaosFailoverSmoke(t *testing.T) {
	base := DefaultConfig(0)
	base.Replication = repl.Sync
	configs := SampleConfigs(base, 6)
	fired := 0
	for ci, cfg := range configs {
		cfg := cfg
		seeds := []uint64{uint64(3000 + ci*10), uint64(3001 + ci*10), uint64(3002 + ci*10)}
		for _, seed := range seeds {
			run := cfg
			run.Seed = seed
			total, _, _, _ := countFailovers(NewPlan(run))
			fired += total
		}
		t.Run(gateBits(cfg.Techniques)+"-"+policyName(cfg.Policy), func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				run := cfg
				run.Seed = seed
				rep, err := Run(run)
				if err != nil {
					t.Fatalf("%v\n  repro: hare-chaos -repro %s", err, run.Tuple())
				}
				if rep.Ops == 0 || rep.Events == 0 {
					t.Fatalf("tuple=%s: degenerate run (%d ops, %d events)", run.Tuple(), rep.Ops, rep.Events)
				}
			}
		})
	}
	if fired == 0 {
		t.Error("no failover events across the whole smoke sweep; the schedule is not exercising promotion")
	}
}

// TestFailoverPlanDeterminism pins three properties of the replicated
// schedule: the same four-token tuple derives a byte-identical plan; the
// tuple round-trips through ParseTuple; and turning replication on only
// appends failover events — the op trace and every other event stay exactly
// what the three-token tuple produced, so old repro tuples never shift.
func TestFailoverPlanDeterminism(t *testing.T) {
	for _, seed := range []uint64{2, 77, 0xBEEF} {
		cfg := DefaultConfig(seed)
		cfg.Policy = place.PolicyRing
		cfg.Replication = repl.Sync

		a := NewPlan(cfg).Encode()
		if b := NewPlan(cfg).Encode(); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two consecutive replicated plan derivations differ", seed)
		}
		s, tech, pol, rmode, err := ParseTuple(cfg.Tuple())
		if err != nil {
			t.Fatal(err)
		}
		if rmode != repl.Sync {
			t.Fatalf("tuple %q lost its replication token: %v", cfg.Tuple(), rmode)
		}
		if c := NewPlan(WithTuple(DefaultConfig(0), s, tech, pol, rmode)).Encode(); !bytes.Equal(a, c) {
			t.Fatalf("seed %d: plan rebuilt from tuple %q differs from the original", seed, cfg.Tuple())
		}

		off := cfg
		off.Replication = repl.Off
		offPlan, onPlan := NewPlan(off), NewPlan(cfg)
		if !reflect.DeepEqual(offPlan.Ops, onPlan.Ops) {
			t.Fatalf("seed %d: enabling replication changed the op trace", seed)
		}
		var rest []Event
		for _, ev := range onPlan.Events {
			if ev.Kind != EvFailover {
				rest = append(rest, ev)
			}
		}
		if !reflect.DeepEqual(offPlan.Events, rest) {
			t.Fatalf("seed %d: enabling replication perturbed the pre-existing event schedule", seed)
		}
	}

	// Across seeds the generator must cover every failover variant.
	var total, double, staged, lose int
	for seed := uint64(0); seed < 40; seed++ {
		cfg := DefaultConfig(seed)
		cfg.Replication = repl.Sync
		a, b, c, d := countFailovers(NewPlan(cfg))
		total += a
		double += b
		staged += c
		lose += d
	}
	if total == 0 || double == 0 || staged == 0 || lose == 0 {
		t.Fatalf("failover variants uncovered across 40 seeds: total=%d double=%d staged=%d lose=%d",
			total, double, staged, lose)
	}
}
