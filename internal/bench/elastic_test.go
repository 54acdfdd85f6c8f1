package bench

import (
	"runtime"
	"testing"

	"repro/internal/place"
)

// TestElasticFigureSmoke runs one tiny elastic sweep point per policy and
// pins the acceptance properties: the namespace-backed workload completes,
// migration moves a non-zero but bounded entry set, and the post-scale-out
// phase stays within 50% of the equally-sized static fleet even at smoke
// scale (the committed BENCH_elastic.json holds the real ~15% numbers).
//
// Virtual-time audit: MigEntries and Imbalance are schedule-independent
// counters; PostRatio is virtual time. Under the serialized engine it
// followed host order — modulo's read 1.5–2.5 in about one run in 25 alone
// and one in 8 beside another copy of the package's tests. The parallel
// engine's gate serves each server's requests in virtual-time order, so the
// sweep runs gated, on one P (as TestDirectoryDistributionHelpsCreates
// does): there ring read 1.0000 and modulo 1.0288 in 40 of 40 runs.
func TestElasticFigureSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data, table, err := elasticFigure(0.1, 4, []int{2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if table.Render() == "" {
		t.Fatal("empty table")
	}
	if len(data.Points) != 2 {
		t.Fatalf("got %d points, want 2 (ring + modulo)", len(data.Points))
	}
	var ring, modulo ElasticPoint
	for _, p := range data.Points {
		switch p.Policy {
		case place.PolicyRing.String():
			ring = p
		case place.PolicyModulo.String():
			modulo = p
		}
	}
	for _, p := range []ElasticPoint{ring, modulo} {
		if p.MigEntries == 0 {
			t.Fatalf("%s: migration moved nothing; the scale-out was a no-op", p.Policy)
		}
		if p.PostSeconds <= 0 || p.StaticSeconds <= 0 {
			t.Fatalf("%s: missing phase timings: post=%v static=%v", p.Policy, p.PostSeconds, p.StaticSeconds)
		}
		if r := p.PostRatio(); r > 1.5 {
			t.Fatalf("%s: post-scale-out phase %.2fx the static fleet; elasticity is pathologically slow", p.Policy, r)
		}
		if p.Imbalance < 1.0 {
			t.Fatalf("%s: imbalance %.2f below 1.0 (max/mean cannot be)", p.Policy, p.Imbalance)
		}
	}
	// The bounded-movement contrast that motivates the ring policy.
	if ring.MigEntries >= modulo.MigEntries {
		t.Fatalf("ring moved %d entries, modulo %d; the ring should move strictly less",
			ring.MigEntries, modulo.MigEntries)
	}
}
