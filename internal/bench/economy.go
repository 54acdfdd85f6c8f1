package bench

import (
	"fmt"
	"runtime"

	"repro/internal/stats"
	"repro/internal/workload"
)

// The economy sweep: the default deployment — async RPC pipeline (DESIGN.md
// §7) and zero-waste data path (DESIGN.md §8) included — runs the
// message-bound and data-movement-bound workloads at several server counts,
// and the table reports what each moved: request messages, wire bytes,
// batched sub-ops, and 64-byte lines written back, invalidated and kept by
// version-matched opens. Every count but bytes follows from the op stream.
// Bytes also follow from how many runs each file's block map is (DESIGN.md
// §8): files that grow side by side on one server take turns at its
// partition, in the order the server serves their EXTENDs. The serialized
// engine serves them in host order, so every deployment runs under the
// gated parallel engine on one P, where that order repeats, and a committed
// sweep (BENCH_economy.json) gates every count exactly. writes@4's bytes
// still moved in about 1 run in 40: worker ids are drawn in host order
// (ROADMAP, determinism), and the gate breaks ties between simultaneous
// arrivals by them.

// EconomyPoint is one (benchmark, server count) measurement.
type EconomyPoint struct {
	Benchmark string
	Servers   int
	Ops       int

	// Seconds is the timed region's virtual runtime: printed, not gated.
	Seconds float64

	// Request messages sent by client libraries during the timed region, and
	// the bytes of every message on the wire.
	Msgs  uint64
	Bytes uint64
	// Sub-operations that traveled inside batch envelopes.
	BatchedOps uint64

	// 64-byte lines written back to DRAM, dropped by open-time invalidation,
	// and kept by version-matched opens.
	WbLines   uint64
	InvLines  uint64
	SkipLines uint64
}

func (p EconomyPoint) key() string { return fmt.Sprintf("%s@%d", p.Benchmark, p.Servers) }

func (p EconomyPoint) gated(c EconomyPoint) EconomyPoint {
	p.Seconds = c.Seconds
	if p.Benchmark == "smallfile+write" {
		// It unlinks the files it wrote: whether the block a later create
		// gets back is still cached on the creator's core, and so is
		// dropped line by line, depends on which worker freed it and
		// which took it first.
		p.InvLines = c.InvLines
	}
	return p
}

var economySweep = &sweep[EconomyPoint]{
	name:  "economy",
	title: "Economy sweep: messages and lines moved per op",
	note: "msgs = client request messages; lines = 64B lines written back, invalidated at open, and kept by version-matched opens. " +
		"Deployments run under the gated engine on one P. " +
		"Gated exactly: Ops, Msgs, Bytes, BatchedOps, WbLines, InvLines (but smallfile+write's, which follow host order), SkipLines; times are printed, not gated.",
	columns: []string{"benchmark", "servers", "time (ms)", "msgs/op", "bytes/op", "batched ops",
		"wb lines", "inv lines", "skipped lines"},
	row: func(p EconomyPoint) []string {
		return []string{p.Benchmark, fmt.Sprint(p.Servers), f2(p.Seconds * 1000),
			f2(stats.PerOp(p.Msgs, p.Ops)), f2(stats.PerOp(p.Bytes, p.Ops)), fmt.Sprint(p.BatchedOps),
			fmt.Sprint(p.WbLines), fmt.Sprint(p.InvLines), fmt.Sprint(p.SkipLines)}
	},
	beside: []int{2, 7},
	bench:  true,
	run: func(p Params) ([]EconomyPoint, map[string]string, error) {
		points, err := economyPoints(p.Scale, p.Cores, nil, p.workloads(workload.SmallFile{},
			workload.SmallFile{WriteBytes: 64}, workload.Creates{}, workload.Writes{}, workload.BigFile{}))
		return points, nil, err
	},
}

// economyPoints runs ws at each server count (default 1, 2, 4 and 8) that
// fits on the machine, gated on one P.
func economyPoints(scale float64, cores int, serverCounts []int, ws []workload.Workload) ([]EconomyPoint, error) {
	if len(serverCounts) == 0 {
		serverCounts = []int{1, 2, 4, 8}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var points []EconomyPoint
	for _, w := range ws {
		for _, nsrv := range serverCounts {
			if nsrv > cores {
				continue
			}
			opts := DefaultHare(cores)
			opts.Servers = nsrv
			opts.Parallel = true
			r, err := RunWorkload(HareFactory(opts), w, scale)
			if err != nil {
				return nil, err
			}
			p := EconomyPoint{Benchmark: w.Name(), Servers: nsrv, Ops: r.Ops, Seconds: r.Seconds}
			if e := r.Econ; e != nil {
				p.Msgs, p.Bytes, p.BatchedOps = e.ClientRPCs, e.Bytes, e.BatchedOps
				p.WbLines, p.InvLines, p.SkipLines = e.WbLines, e.InvLines, e.SkipLines
			}
			points = append(points, p)
		}
	}
	return points, nil
}
