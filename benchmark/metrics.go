package main

import (
	"math"
	"slices"
)

// metricDef is one named metric. BENCHMARK.json repeats name, unit and
// direction (and, for end-to-end metrics, the regression bound); the smoke
// test keeps the two lists equal. README.md holds the glossary.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// exact marks a count that must be identical across repetitions of one
	// seed, and across commits that claim to change only the harness.
	exact bool
}

// endToEnd is what a user of the system sees: the simulated machine's speed
// in virtual time, and the simulator's own cost in host time and memory.
var endToEnd = []metricDef{
	{name: "virt_kops_per_s", unit: "kops/s", better: "higher"},
	{name: "virt_op_mean_us", unit: "us", better: "lower"},
	{name: "virt_op_tail_us", unit: "us", better: "lower"},
	{name: "wall_us_per_op", unit: "us", better: "lower"},
	{name: "allocs_per_op", unit: "1/op", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is every single-layer metric; the prefix is the module.
var perLayer = []metricDef{
	// Counters from the public accessors, as differences across the timed
	// region.
	{name: "msg.msgs_per_op", unit: "1/op", better: "lower", exact: true},
	{name: "msg.bytes_per_op", unit: "B/op", better: "lower", exact: true},
	{name: "msg.callbacks_per_op", unit: "1/op", better: "lower", exact: true},
	{name: "client.rpcs_per_op", unit: "1/op", better: "lower", exact: true},
	{name: "client.batched_subops_per_op", unit: "1/op", better: "higher", exact: true},
	{name: "ncc.wb_lines_per_op", unit: "1/op", better: "lower", exact: true},
	{name: "ncc.inv_lines_per_op", unit: "1/op", better: "lower"},
	{name: "ncc.skip_lines_per_op", unit: "1/op", better: "higher", exact: true},
	{name: "wal.records_per_op", unit: "1/op", better: "lower", exact: true},
	{name: "wal.bytes_per_op", unit: "B/op", better: "lower", exact: true},
	{name: "wal.records_per_flush", unit: "count", better: "higher"},
	{name: "repl.msgs_per_op", unit: "1/op", better: "lower", exact: true},
	{name: "repl.bytes_per_op", unit: "B/op", better: "lower", exact: true},
	{name: "repl.max_lag_records", unit: "count", better: "lower"},
	{name: "server.queue_cycles_per_op", unit: "cycles/op", better: "lower"},
	{name: "server.busy_share", unit: "ratio", better: "lower"},
	{name: "server.load_imbalance", unit: "ratio", better: "lower"},
	{name: "server.parked_per_kop", unit: "1/kop", better: "lower"},
	{name: "server.invalidations_per_op", unit: "1/op", better: "lower"},

	// The client boundary, from the benchmark's own per-call timing.
	{name: "client.virt_op_p50_us", unit: "us", better: "lower"},
	{name: "client.virt_op_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_open_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_close_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_unlink_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_stat_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_read_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_rename_p99_us", unit: "us", better: "lower"},
	{name: "client.virt_readdir_p99_us", unit: "us", better: "lower"},

	// Virtual-time station split: self time per span kind in the traced
	// pass, per sampled op.
	{name: "client.virt_self_us_per_op", unit: "us", better: "lower"},
	{name: "msg.virt_net_us_per_op", unit: "us", better: "lower"},
	{name: "server.virt_queue_us_per_op", unit: "us", better: "lower"},
	{name: "server.virt_service_us_per_op", unit: "us", better: "lower"},
	{name: "wal.virt_commit_us_per_op", unit: "us", better: "lower"},
	{name: "ncc.virt_writeback_us_per_op", unit: "us", better: "lower"},
	{name: "repl.virt_ship_us_per_op", unit: "us", better: "lower"},
	{name: "trace.overhead_virt_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_wall_pct", unit: "%", better: "lower"},
	{name: "trace.spans_dropped", unit: "count", better: "lower"},
	{name: "trace.sample_n", unit: "count", better: "lower"},

	// Host-time probes of each layer's public functions in isolation, at
	// the operating point the workload reported.
	{name: "proto.req_marshal_ns", unit: "ns", better: "lower"},
	{name: "proto.req_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "proto.resp_marshal_ns", unit: "ns", better: "lower"},
	{name: "proto.resp_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "proto.batch_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "msg.rpc_echo_ns", unit: "ns", better: "lower"},
	{name: "msg.rpc_echo_gated_ns", unit: "ns", better: "lower"},
	{name: "msg.queue_push_pop_ns", unit: "ns", better: "lower"},
	{name: "msg.allocs_per_rpc", unit: "count", better: "lower"},
	{name: "sim.gate_bump_ns", unit: "ns", better: "lower"},
	{name: "sim.gate_safeat_ns", unit: "ns", better: "lower"},
	{name: "sim.coretime_execute_ns", unit: "ns", better: "lower"},
	{name: "table.get_ns", unit: "ns", better: "lower"},
	{name: "table.put_delete_ns", unit: "ns", better: "lower"},
	{name: "table.sharded_get_ns", unit: "ns", better: "lower"},
	{name: "place.route_ns", unit: "ns", better: "lower"},
	{name: "ncc.read_hit_ns_per_4k", unit: "ns", better: "lower"},
	{name: "ncc.write_ns_per_4k", unit: "ns", better: "lower"},
	{name: "ncc.writeback_ns_per_line", unit: "ns", better: "lower"},
	{name: "wal.append_ns_per_record", unit: "ns", better: "lower"},
	{name: "wal.encode_ns_per_record", unit: "ns", better: "lower"},
	{name: "repl.ingest_ns_per_record", unit: "ns", better: "lower"},
	{name: "client.stat_floor_ns", unit: "ns", better: "lower"},
	{name: "client.create_unlink_floor_ns", unit: "ns", better: "lower"},

	// wall_us_per_op attributed: probe cost × calls per op, and what is left.
	{name: "msg.wall_est_us_per_op", unit: "us", better: "lower"},
	{name: "proto.wall_est_us_per_op", unit: "us", better: "lower"},
	{name: "table.wall_est_us_per_op", unit: "us", better: "lower"},
	{name: "sim.wall_est_us_per_op", unit: "us", better: "lower"},
	{name: "ncc.wall_est_us_per_op", unit: "us", better: "lower"},
	{name: "wal.wall_est_us_per_op", unit: "us", better: "lower"},
	{name: "harness.wall_residual_us_per_op", unit: "us", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower"},
}

// exactMetric is the set of per-layer metrics marked exact.
var exactMetric = func() map[string]bool {
	out := make(map[string]bool)
	for _, m := range perLayer {
		if m.exact {
			out[m.name] = true
		}
	}
	return out
}()

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is an end-to-end metric across the measured repetitions.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Raw    []float64 `json:"raw"`
}

func summarize(raw []float64, unit string) summary {
	q1, med, q3 := quartiles(raw)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(raw), Unit: unit, Raw: raw}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles returns the quartiles as Python's statistics.quantiles(xs, n=4)
// does (the exclusive method), which is what the acceptance rule uses. Fewer
// than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i·(n+1)/4 in 1-based ranks, clamped to the data.
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
