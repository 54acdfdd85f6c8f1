package bench

import (
	"fmt"
	"runtime"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The observability sweep (DESIGN.md §11): the reference workloads run with
// tracing off, sampled 1-in-64, and on every operation, and the table
// reports the virtual-time overhead of each mode alongside the tail-latency
// percentiles the traced modes unlock. The sampled mode is the always-on
// production setting, so its overhead column is the one that matters.
//
// Every deployment runs under the gated parallel engine on one P, where the
// traced modes' times and span counts repeat run to run; under the
// serialized engine the untraced time followed host order, and the overhead
// with it.

// ObsSampleInterval is the sampled mode's 1-in-N interval.
const ObsSampleInterval = 64

// obsOverheadBound is the most virtual time the sampled mode may add to the
// untraced run: a check that measures more fails, whatever the file says.
const obsOverheadBound = 0.03

// ObsPoint is one benchmark measured in one tracing mode.
type ObsPoint struct {
	Benchmark string
	Mode      string // "off", "1/64", "full"
	Sample    int
	Ops       int
	Seconds   float64
	// Overhead is the virtual-time cost relative to the untraced run
	// (0.01 = 1% slower); 0 for the off mode itself.
	Overhead float64
	// Spans retained in the ring at the end of the timed region.
	Spans int
	// HotOp is the op with the most recorded root spans, and P50/P99 its
	// latency quantiles in virtual cycles; empty and zero untraced.
	HotOp    string `json:",omitempty"`
	P50, P99 uint64
}

func (p ObsPoint) key() string { return p.Benchmark + " " + p.Mode }

func (p ObsPoint) gated(c ObsPoint) ObsPoint {
	c.Ops = p.Ops
	if p.Mode == "full" {
		// A sampled mode's spans follow which ops draw the sample, and
		// a worker's op order follows the host's now and then.
		c.Spans = p.Spans
	}
	if p.Sample == ObsSampleInterval && p.Overhead > obsOverheadBound {
		c.Overhead = p.Overhead
	}
	return c
}

var obsSweep = &sweep[ObsPoint]{
	name:  "obs",
	title: fmt.Sprintf("Tracing overhead: off vs 1-in-%d sampled vs full", ObsSampleInterval),
	note: fmt.Sprintf("overhead = virtual-time cost vs the untraced run, under the gated engine on one P; spans = ring occupancy; percentiles are root-span latencies of the most frequent op. "+
		"Gated: Ops and the full mode's Spans exactly, the 1-in-%d mode's Overhead at most %.0f%%; times and percentiles are printed, not gated.",
		ObsSampleInterval, obsOverheadBound*100),
	columns: []string{"benchmark", "mode", "time (ms)", "overhead", "spans", "hot op", "p50 (cyc)", "p99 (cyc)"},
	row: func(p ObsPoint) []string {
		spans, op, lat50, lat99 := "-", "-", "-", "-"
		if p.Sample > 0 {
			spans = fmt.Sprint(p.Spans)
		}
		if p.HotOp != "" {
			op, lat50, lat99 = p.HotOp, fmt.Sprint(p.P50), fmt.Sprint(p.P99)
		}
		return []string{p.Benchmark, p.Mode, f2(p.Seconds * 1000), fmt.Sprintf("%.2f%%", p.Overhead*100), spans, op, lat50, lat99}
	},
	beside: []int{3},
	bench:  true,
	run: func(p Params) ([]ObsPoint, map[string]string, error) {
		var points []ObsPoint
		for _, w := range p.workloads(workload.SmallFile{}, workload.BigFile{}) {
			more, err := obsPoints(p.Scale, p.Cores, w)
			if err != nil {
				return nil, nil, err
			}
			points = append(points, more...)
		}
		return points, nil, nil
	},
}

// obsPoints measures one benchmark in the three tracing modes.
func obsPoints(scale float64, cores int, w workload.Workload) ([]ObsPoint, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var points []ObsPoint
	for _, sample := range []int{0, ObsSampleInterval, 1} {
		opts := DefaultHare(cores)
		opts.Trace = trace.Config{Sample: sample}
		opts.Parallel = true
		r, err := RunWorkload(HareFactory(opts), w, scale)
		if err != nil {
			return nil, err
		}
		p := ObsPoint{Benchmark: w.Name(), Mode: "off", Sample: sample, Ops: r.Ops, Seconds: r.Seconds, Spans: len(r.Spans)}
		p.HotOp, p.P50, p.P99 = hottestOp(r.Lat)
		if sample > 0 {
			p.Mode = fmt.Sprintf("1/%d", sample)
			p.Overhead = r.Seconds/points[0].Seconds - 1
			if sample == 1 {
				p.Mode = "full"
			}
		}
		points = append(points, p)
	}
	return points, nil
}

// hottestOp picks the op with the most recorded samples and its median and
// 99th-percentile latency.
func hottestOp(lat map[string]stats.Quantiles) (string, uint64, uint64) {
	var best string
	var bestQ stats.Quantiles
	for op, q := range lat {
		if q.N > bestQ.N || (q.N == bestQ.N && (best == "" || op < best)) {
			best, bestQ = op, q
		}
	}
	return best, bestQ.P50, bestQ.P99
}
