package main

import (
	"regexp"
	"slices"
	"testing"
	"time"
)

// smoke runs one workload at a 250th of its size, traced pass and probes
// included.
func smoke(t *testing.T, name string, seed uint64, reps int) *result {
	t.Helper()
	res, _, err := runWorkload(options{workload: name, seed: seed, scale: 0.004, reps: reps,
		traced: true, probeBatch: 50 * time.Microsecond})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s seed %d: %d of %d calls and checks failed, first: %s", name, seed, res.Failed, res.Attempted, res.FirstFail)
	}
	return res
}

// exactValues is the workload's exact per-layer counts, in table order.
func exactValues(res *result) []float64 {
	var out []float64
	for _, m := range perLayer {
		if m.exact {
			out = append(out, res.PerLayer[m.name].Value)
		}
	}
	return out
}

func TestWorkloadsEmitTheContract(t *testing.T) {
	con, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(con.EndToEnd) > 16 || len(con.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the limits of 16 and 128", len(con.EndToEnd), len(con.PerLayer))
	}
	if len(con.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(con.Workloads), len(workloadList))
	}
	for i, w := range con.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	// The two metric lists of BENCHMARK.json and of the benchmark are equal,
	// name by name, with unit and direction; no name is used twice.
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	same := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, m)
			}
			if !nameOK.MatchString(m.name) || seen[m.name] {
				t.Errorf("metric name %q is malformed or used twice", m.name)
			}
			seen[m.name] = true
			if kind == "end-to-end" && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	same("end-to-end", con.EndToEnd, endToEnd)
	same("per-layer", con.PerLayer, perLayer)

	for _, info := range workloadList {
		t.Run(info.name, func(t *testing.T) {
			t.Parallel()
			a, other := smoke(t, info.name, 1, 2), smoke(t, info.name, 2, 1)
			for _, m := range endToEnd {
				if s, ok := a.EndToEnd[m.name]; !ok || s.Unit != m.unit || s.Median <= 0 {
					t.Errorf("%s: missing, without its unit, or not positive: %+v", m.name, s)
				}
			}
			if len(a.EndToEnd) != len(endToEnd) || len(a.PerLayer) != len(perLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, want %d and %d", len(a.EndToEnd), len(a.PerLayer), len(endToEnd), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := a.PerLayer[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s: missing or without its unit: %+v", m.name, v)
				}
			}
			if x, y := a.Repetitions[0].exactCounters(), a.Repetitions[1].exactCounters(); !slices.Equal(x, y) {
				t.Errorf("an exact count differs between two repetitions of seed 1: %v vs %v", x, y)
			}
			ea, eo := exactValues(a), exactValues(other)
			if slices.Equal(ea, eo) {
				t.Errorf("seeds 1 and 2 gave the same exact counts %v: the seed does not reach the op stream", ea)
			}
		})
	}
}

// The acceptance rule is stated in terms of Python's statistics.quantiles.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, Python gives 1 2 3", q1, q2, q3)
	}
}
