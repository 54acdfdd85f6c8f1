package bench

import (
	"fmt"

	"repro/internal/place"
	"repro/internal/workload"
)

// The elastic sweep (DESIGN.md §9): the scale-out-under-load workload runs
// on a deployment that grows by one file server between its two traffic
// phases, under both placement policies, next to an equally-sized static
// deployment running the identical operation stream. The table quantifies
// what elasticity costs (post-scale-out phase vs the static fleet that had
// the extra server all along), what it moves (migrated entries — the ring's
// bounded-movement promise vs modulo reshuffling the world), and what it
// buys (per-server load imbalance).

// ElasticPoint is one (policy, fleet size) measurement.
type ElasticPoint struct {
	Policy  string
	Servers int // fleet size before the mid-run growth
	Ops     int

	// Virtual seconds of the traffic phases on the elastic deployment
	// (phase B runs concurrently with the shard migration) and of phase B
	// on the static deployment that had Servers+1 from boot.
	PreSeconds      float64
	PostSeconds     float64
	StaticSeconds   float64
	MigEntries      uint64  // directory entries the migration moved
	Imbalance       float64 // max/mean requests per server, elastic run
	StaticImbalance float64
}

// PostRatio compares the post-scale-out phase with the equally-sized static
// fleet (1.0 = elastic reached static speed; >1 means the migration and
// epoch refreshes cost that factor).
func (p ElasticPoint) PostRatio() float64 {
	if p.StaticSeconds == 0 {
		return 0
	}
	return p.PostSeconds / p.StaticSeconds
}

func (p ElasticPoint) key() string { return fmt.Sprintf("%s@%d", p.Policy, p.Servers) }

func (p ElasticPoint) gated(c ElasticPoint) ElasticPoint {
	p.PreSeconds, p.PostSeconds, p.StaticSeconds = c.PreSeconds, c.PostSeconds, c.StaticSeconds
	return p
}

var elasticSweep = &sweep[ElasticPoint]{
	name:  "elastic",
	title: "Elastic sweep: scale-out under load, N -> N+1 servers mid-run",
	note: "phase B runs while the new server joins and shards migrate; static B is the same phase on a fleet that had N+1 servers from boot. moved = directory entries handed off (ring moves ~1/N, modulo reshuffles the bulk); imbalance = max/mean requests per server. " +
		"Gated exactly: Ops, MigEntries, Imbalance, StaticImbalance; phase times follow host order and are printed, not gated.",
	columns: []string{"policy", "servers", "phase A (ms)", "phase B (ms)", "static B (ms)",
		"B/static", "moved", "imbalance", "static imb"},
	row: func(p ElasticPoint) []string {
		return []string{p.Policy, fmt.Sprintf("%d->%d", p.Servers, p.Servers+1),
			f2(p.PreSeconds * 1000), f2(p.PostSeconds * 1000), f2(p.StaticSeconds * 1000),
			f2(p.PostRatio()), fmt.Sprint(p.MigEntries), f2(p.Imbalance), f2(p.StaticImbalance)}
	},
	beside: []int{5},
	run: func(p Params) ([]ElasticPoint, map[string]string, error) {
		points, err := elasticPoints(p.Scale, p.Cores, nil, false)
		return points, nil, err
	},
}

// elasticPoints measures each placement policy at each pre-growth fleet
// size (default 2 and 4) that can grow by one on the machine; parallel runs
// every deployment under the gated parallel engine.
func elasticPoints(scale float64, cores int, startServers []int, parallel bool) ([]ElasticPoint, error) {
	if len(startServers) == 0 {
		startServers = []int{2, 4}
	}
	var points []ElasticPoint
	for _, policy := range []place.Policy{place.PolicyRing, place.PolicyModulo} {
		for _, n := range startServers {
			if n+1 > cores {
				continue
			}
			p, err := elasticPoint(scale, cores, n, policy, parallel)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// elasticPoint measures one policy at one fleet size: the elastic run
// (grow mid-workload) and the equally-sized static control.
func elasticPoint(scale float64, cores, servers int, policy place.Policy, parallel bool) (ElasticPoint, error) {
	elOpts := DefaultHare(cores)
	elOpts.Servers = servers
	elOpts.MaxServers = servers + 1
	elOpts.PlacePolicy = policy
	elOpts.Parallel = parallel

	elWork := &workload.Elastic{}
	el, err := RunWorkload(HareFactory(elOpts), elWork, scale)
	if err != nil {
		return ElasticPoint{}, err
	}

	stOpts := DefaultHare(cores)
	stOpts.Servers = servers + 1
	stOpts.PlacePolicy = policy
	stOpts.Parallel = parallel

	stWork := &workload.Elastic{}
	st, err := RunWorkload(HareFactory(stOpts), stWork, scale)
	if err != nil {
		return ElasticPoint{}, err
	}

	secsPerCycle := func(r Result) float64 {
		if r.Elapsed == 0 {
			return 0
		}
		return r.Seconds / float64(r.Elapsed)
	}
	p := ElasticPoint{
		Policy:          policy.String(),
		Servers:         servers,
		Ops:             el.Ops,
		PreSeconds:      float64(elWork.PreCycles) * secsPerCycle(el),
		PostSeconds:     float64(elWork.PostCycles) * secsPerCycle(el),
		StaticSeconds:   float64(stWork.PostCycles) * secsPerCycle(st),
		Imbalance:       el.Imbalance,
		StaticImbalance: st.Imbalance,
	}
	if el.Econ != nil {
		p.MigEntries = el.Econ.MigEntries
	}
	return p, nil
}
