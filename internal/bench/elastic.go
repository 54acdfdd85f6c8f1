package bench

import (
	"encoding/json"
	"fmt"
	"os"

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

// DefaultElasticStartServers is the pre-growth fleet size swept by
// ElasticFigure (each grows by one mid-run).
var DefaultElasticStartServers = []int{2, 4}

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

// ElasticData holds the full sweep.
type ElasticData struct {
	Cores  int
	Scale  float64
	Points []ElasticPoint
}

// ElasticFigure runs the sweep at the given scale on a machine with the
// given core count.
func ElasticFigure(scale float64, cores int, startServers []int) (*ElasticData, *Table, error) {
	return elasticFigure(scale, cores, startServers, false)
}

// elasticFigure is ElasticFigure with the engine chosen: parallel runs every
// deployment under the gated parallel engine.
func elasticFigure(scale float64, cores int, startServers []int, parallel bool) (*ElasticData, *Table, error) {
	if cores == 0 {
		cores = 8
	}
	if len(startServers) == 0 {
		startServers = DefaultElasticStartServers
	}
	data := &ElasticData{Cores: cores, Scale: scale}
	t := &Table{
		Title: fmt.Sprintf("Elastic sweep: scale-out under load, N -> N+1 servers mid-run (%d cores)", cores),
		Columns: []string{"policy", "servers", "phase A (ms)", "phase B (ms)", "static B (ms)",
			"B/static", "moved", "imbalance", "static imb"},
		Note: "phase B runs while the new server joins and shards migrate; static B is the same phase on a fleet that had N+1 servers from boot. moved = directory entries handed off (ring moves ~1/N, modulo reshuffles the bulk); imbalance = max/mean requests per server.",
	}
	for _, policy := range []place.Policy{place.PolicyRing, place.PolicyModulo} {
		for _, n := range startServers {
			if n+1 > cores {
				continue
			}
			p, err := elasticPoint(scale, cores, n, policy, parallel)
			if err != nil {
				return nil, nil, err
			}
			data.Points = append(data.Points, p)
			t.AddRow(p.Policy, fmt.Sprintf("%d->%d", p.Servers, p.Servers+1),
				f2(p.PreSeconds*1000), f2(p.PostSeconds*1000), f2(p.StaticSeconds*1000),
				f2(p.PostRatio()), fmt.Sprintf("%d", p.MigEntries),
				f2(p.Imbalance), f2(p.StaticImbalance))
		}
	}
	return data, t, nil
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

// WriteBaseline serializes the sweep to path as indented JSON (committed as
// BENCH_elastic.json so future changes have an elasticity trajectory to
// compare against).
func (d *ElasticData) WriteBaseline(path string) error {
	b := struct {
		Note   string         `json:"note"`
		Scale  float64        `json:"scale"`
		Cores  int            `json:"cores"`
		Points []ElasticPoint `json:"points"`
	}{
		Note:   "hare-bench -elastic baseline; regenerate with: hare-bench -elastic -scale <scale> -cores <cores> -baseline <path>",
		Scale:  d.Scale,
		Cores:  d.Cores,
		Points: d.Points,
	}
	buf, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
