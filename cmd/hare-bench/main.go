// Command hare-bench regenerates the tables and figures of the paper's
// evaluation section (§5) on the simulated machine, and runs the
// beyond-paper sweeps whose committed BENCH_*.json files CI compares.
//
// Usage:
//
//	hare-bench [-fig N] [-scale F] [-cores N] [-bench name]
//	hare-bench -sweep name [-scale F] [-cores N] [-bench name] [-rungs spec] [-baseline path]
//	hare-bench -check BENCH_x.json
//	hare-bench -trace out.json [-bench name] [-scale F] [-cores N]
//
// With no -fig flag every paper experiment is run in order. The -scale flag
// shrinks the workload iteration counts (1.0 reproduces the default sizes;
// smaller values finish faster), and -bench restricts the run to a single
// benchmark where applicable.
//
// The -sweep flag runs one beyond-paper sweep instead: economy (messages
// and lines moved), elastic (scale-out under load), failover (replication
// off/sync), obs (tracing overhead), durability (logging overhead,
// recovery time and the self-verifying crash-injection workload; DESIGN.md
// §6) or scale (the harness itself at big fleets, at the rungs -rungs
// names). With -baseline it also writes the sweep as a committed file,
// which records the sweep's name and parameters: -check re-runs it from
// the file alone and exits non-zero if a gated column differs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (4-15); 0 means all")
		scale      = flag.Float64("scale", 0.25, "workload scale factor (1.0 = full size)")
		cores      = flag.Int("cores", 40, "size of the simulated machine")
		benchName  = flag.String("bench", "", "restrict to a single benchmark (e.g. \"creates\")")
		repoRoot   = flag.String("root", ".", "repository root (for the Figure 4 SLOC count)")
		sweep      = flag.String("sweep", "", "run one beyond-paper sweep instead of the paper's figures: "+strings.Join(bench.SweepNames(), ", "))
		rungs      = flag.String("rungs", "", "with -sweep scale: the rungs (\"64\" or \"8:125000,64:1000000\"; a \":par\" suffix runs a rung under the parallel engine, an \"@N\" suffix after that at GOMAXPROCS=N; \"baseline\" = BENCH_scale.json's rungs; empty = the four big serialized rungs)")
		traceOut   = flag.String("trace", "", "run one benchmark (-bench, default smallfile) with full tracing and export the span tree as Chrome trace_event JSON to this path (open in Perfetto)")
		baseline   = flag.String("baseline", "", "with -sweep: also write the sweep to this path as a committed file (e.g. BENCH_economy.json)")
		check      = flag.String("check", "", "re-run the sweep the committed file at this path names, at the parameters it records, and exit non-zero if a gated column differs; ungated columns are printed beside the committed ones")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path (see PROFILING.md)")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile at exit to this path (see PROFILING.md)")
	)
	flag.Parse()

	stopProfiles := func() {}
	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "hare-bench:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fail(err)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		cpuStop := stopProfiles
		stopProfiles = func() {
			cpuStop()
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hare-bench:", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "hare-bench:", err)
			}
			f.Close()
		}
	}
	defer stopProfiles()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	modes := 0
	for _, m := range []string{"fig", "sweep", "check", "trace"} {
		if set[m] {
			modes++
		}
	}
	switch {
	case modes > 1:
		fail(fmt.Errorf("-fig, -sweep, -check and -trace each pick what runs: give one"))
	case (set["baseline"] || set["rungs"]) && !set["sweep"]:
		fail(fmt.Errorf("-baseline and -rungs go with -sweep"))
	case set["check"] && (set["scale"] || set["cores"] || set["bench"]):
		fail(fmt.Errorf("-check runs at the parameters %s records: drop -scale, -cores and -bench", *check))
	}
	var picked workload.Workload
	if *benchName != "" {
		var ok bool
		if picked, ok = workload.ByName(*benchName); !ok {
			fail(fmt.Errorf("unknown benchmark %q; available: %v", *benchName, workload.Names()))
		}
	}
	switch {
	case *check != "" || *sweep != "":
		var tables []*bench.Table
		var err error
		if *check != "" {
			tables, err = bench.Check(*check)
		} else {
			tables, err = bench.Sweep(*sweep, bench.Params{Scale: *scale, Cores: *cores, Rungs: *rungs, Bench: picked}, *baseline)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		if err != nil {
			fail(err)
		}
		if *baseline != "" {
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	case *traceOut != "":
		if picked == nil {
			picked = workload.SmallFile{}
		}
		opts := bench.DefaultHare(*cores)
		opts.Trace = trace.Config{Sample: 1}
		r, err := bench.RunWorkload(bench.HareFactory(opts), picked, *scale)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteChrome(f, r.Spans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail(err)
		}
		fmt.Println(latencyTable(r).Render())
		fmt.Printf("%d spans written to %s (load in Perfetto: ui.perfetto.dev)\n", len(r.Spans), *traceOut)
		return
	}

	ws := workload.All()
	if picked != nil {
		for _, fw := range workload.FaultBenchmarks() {
			if fw.Name() == picked.Name() {
				fail(fmt.Errorf("benchmark %q needs a fault-injecting backend; -sweep durability runs it", picked.Name()))
			}
		}
		ws = []workload.Workload{picked}
	}

	run := func(n int) bool { return *fig == 0 || *fig == n }

	if run(4) {
		t, err := bench.Figure4(*repoRoot, false)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(5) {
		t, err := bench.Figure5(*scale)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(6) {
		coreCounts := []int{1, 2, 5, 10, 20, *cores}
		_, t, err := bench.Figure6(*scale, coreCounts, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(7) {
		t, err := bench.Figure7(*scale, *cores, nil, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(8) {
		t, err := bench.Figure8(*scale, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
	if run(9) || run(10) || run(11) || run(12) || run(13) || run(14) {
		_, figs, summary, err := bench.AblateTechniques(*scale, *cores, ws)
		if err != nil {
			fail(err)
		}
		for i, ft := range figs {
			if run(10 + i) {
				fmt.Println(ft.Render())
			}
		}
		if run(9) {
			fmt.Println(summary.Render())
		}
	}
	if run(15) {
		t, err := bench.Figure15(*scale, *cores, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
	}
}

// latencyTable renders the per-op tail-latency quantiles of a traced run.
func latencyTable(r bench.Result) *bench.Table {
	t := &bench.Table{
		Title:   fmt.Sprintf("%s on %s: per-op latency (virtual cycles)", r.Benchmark, r.Backend),
		Columns: []string{"op", "n", "p50", "p95", "p99", "p999", "max"},
		Note:    "power-of-two histogram percentiles: each estimate is within one bucket (2x) of the exact rank.",
	}
	ops := make([]string, 0, len(r.Lat))
	for op := range r.Lat {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		q := r.Lat[op]
		t.AddRow(op, fmt.Sprint(q.N), fmt.Sprint(q.P50), fmt.Sprint(q.P95), fmt.Sprint(q.P99), fmt.Sprint(q.P999), fmt.Sprint(q.Max))
	}
	return t
}
