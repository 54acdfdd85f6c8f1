// Command hare-bench regenerates the tables and figures of the paper's
// evaluation section (§5) on the simulated machine.
//
// Usage:
//
//	hare-bench [-fig N] [-scale F] [-cores N] [-bench name] [-durability]
//	           [-pipeline] [-datapath] [-elastic] [-failover] [-obs]
//	           [-scalesweep spec] [-baseline path] [-check path] [-trace out.json]
//
// With no -fig flag every experiment is run in order. The -scale flag
// shrinks the workload iteration counts (1.0 reproduces the default sizes;
// smaller values finish faster), and -bench restricts the run to a single
// benchmark where applicable.
//
// The -durability flag runs the write-ahead-log figures instead of the
// paper's (the paper scopes durability out; DESIGN.md §6 describes the
// subsystem): the logging overhead against the same workload with the log
// off, a recovery-time comparison of pure log replay versus checkpoint +
// tail, and the self-verifying crash-injection workload that kills and
// recovers every file server mid-run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

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
		durability = flag.Bool("durability", false, "run the durability figures (logging overhead, recovery time, crash-injection check) instead of the paper's")
		pipeline   = flag.Bool("pipeline", false, "run the async-RPC pipelining sweep (on/off × server counts) instead of the paper's figures")
		datapath   = flag.Bool("datapath", false, "run the zero-waste data-path sweep (dirty-line writeback + version-skip invalidation, on/off × server counts) instead of the paper's figures")
		elastic    = flag.Bool("elastic", false, "run the elastic sweep (scale-out under load, ring vs modulo placement) instead of the paper's figures")
		failover   = flag.Bool("failover", false, "run the failover sweep (replication off/sync/async: shipping overhead, replay vs promotion stall) instead of the paper's figures")
		obs        = flag.Bool("obs", false, "run the tracing-overhead sweep (off vs 1-in-64 sampled vs full tracing) instead of the paper's figures")
		traceOut   = flag.String("trace", "", "run one benchmark (-bench, default smallfile) with full tracing and export the span tree as Chrome trace_event JSON to this path (open in Perfetto)")
		baseline   = flag.String("baseline", "", "with -pipeline, -datapath, -elastic, -obs or -scalesweep: also write the sweep as a JSON baseline to this path (e.g. BENCH_seed.json, BENCH_scale.json)")
		check      = flag.String("check", "", "with -pipeline or -datapath: re-run the sweep the committed baseline at this path records (BENCH_seed.json, BENCH_datapath.json), at its own scale and cores; with -scalesweep: re-run those rungs and compare each with the point this baseline (BENCH_scale.json) records for it. Exits non-zero if an exact column differs; times are printed side by side")
		scaleSweep = flag.String("scalesweep", "", "run the harness-scaling sweep at these rungs (\"64\" or \"8:125000,64:1000000\"; a \":par\" suffix runs a rung under the parallel engine, an \"@N\" suffix after that at GOMAXPROCS=N; \"default\" = the four big serialized rungs; \"baseline\" = BENCH_scale.json's rungs) instead of the paper's figures")
		parallel   = flag.Bool("parallel", false, "with -scalesweep: run every rung under the parallel virtual-time engine instead of the serialized default")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path (see PROFILING.md)")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile at exit to this path (see PROFILING.md)")
	)
	flag.Parse()

	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hare-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hare-bench:", err)
			os.Exit(1)
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

	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "hare-bench:", err)
		os.Exit(1)
	}

	if *scaleSweep != "" {
		if *fig != 0 || *durability || *pipeline || *datapath || *elastic || *failover || *obs || *traceOut != "" || *benchName != "" {
			fail(fmt.Errorf("-scalesweep runs its own figure set and cannot be combined with other figure-set flags"))
		}
		rungs := append([]bench.ScaleRung(nil), bench.DefaultScaleRungs...)
		if spec := *scaleSweep; spec != "default" {
			if spec == "baseline" {
				spec = bench.ScaleBaselineSpec
			}
			var err error
			rungs, err = bench.ParseScaleRungs(spec)
			if err != nil {
				fail(err)
			}
		}
		for i := range rungs {
			rungs[i].Parallel = rungs[i].Parallel || *parallel
		}
		if *check != "" {
			t, err := bench.CheckScaleBaseline(*check, rungs)
			if t != nil {
				fmt.Println(t.Render())
			}
			if err != nil {
				fail(err)
			}
			return
		}
		data, tables, err := bench.ScaleSweepFigure(rungs)
		if err != nil {
			fail(err)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		if *baseline != "" {
			if err := data.WriteBaseline(*baseline); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *traceOut != "" {
		if *fig != 0 || *durability || *pipeline || *datapath || *elastic || *obs {
			fail(fmt.Errorf("-trace runs a single traced benchmark and cannot be combined with figure-set flags"))
		}
		var w workload.Workload = workload.SmallFile{}
		if *benchName != "" {
			var ok bool
			w, ok = workload.ByName(*benchName)
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q; available: %v", *benchName, workload.Names()))
			}
		}
		opts := bench.DefaultHare(*cores)
		opts.Trace = trace.Config{Sample: 1}
		r, err := bench.RunWorkload(bench.HareFactory(opts), w, *scale)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := trace.WriteChrome(f, r.Spans); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Println(latencyTable(r).Render())
		fmt.Printf("%d spans written to %s (load in Perfetto: ui.perfetto.dev)\n", len(r.Spans), *traceOut)
		return
	}

	if *obs {
		if *durability || *pipeline || *datapath || *elastic || *fig != 0 {
			fail(fmt.Errorf("-obs runs its own figure set and cannot be combined with -durability, -pipeline, -datapath, -elastic or -fig"))
		}
		var ws []workload.Workload
		if *benchName != "" {
			w, ok := workload.ByName(*benchName)
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q; available: %v", *benchName, workload.Names()))
			}
			ws = []workload.Workload{w}
		}
		data, t, err := bench.ObsFigure(*scale, *cores, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		if *baseline != "" {
			if err := data.WriteBaseline(*baseline); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *failover {
		if *durability || *pipeline || *datapath || *elastic || *obs || *fig != 0 || *benchName != "" {
			fail(fmt.Errorf("-failover runs its own figure set and cannot be combined with -durability, -pipeline, -datapath, -elastic, -obs, -bench or -fig"))
		}
		data, t, err := bench.FailoverFigure(*scale, *cores)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		if *baseline != "" {
			if err := data.WriteBaseline(*baseline); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *elastic {
		if *durability || *pipeline || *datapath || *fig != 0 || *benchName != "" {
			fail(fmt.Errorf("-elastic runs its own figure set and cannot be combined with -durability, -pipeline, -datapath, -bench or -fig"))
		}
		data, t, err := bench.ElasticFigure(*scale, *cores, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		if *baseline != "" {
			if err := data.WriteBaseline(*baseline); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *datapath {
		if *durability || *pipeline || *fig != 0 {
			fail(fmt.Errorf("-datapath runs its own figure set and cannot be combined with -durability, -pipeline or -fig"))
		}
		if *check != "" {
			// The committed file says at which scale and on how many cores.
			t, err := bench.CheckDatapathBaseline(*check)
			if t != nil {
				fmt.Println(t.Render())
			}
			if err != nil {
				fail(err)
			}
			return
		}
		var ws []workload.Workload
		if *benchName != "" {
			w, ok := workload.ByName(*benchName)
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q; available: %v", *benchName, workload.Names()))
			}
			ws = []workload.Workload{w}
		}
		data, t, err := bench.DatapathFigure(*scale, *cores, nil, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		if *baseline != "" {
			if err := data.WriteBaseline(*baseline); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *pipeline {
		if *durability || *fig != 0 {
			fail(fmt.Errorf("-pipeline runs its own figure set and cannot be combined with -durability or -fig"))
		}
		if *check != "" {
			// The committed file says at which scale and on how many cores.
			t, err := bench.CheckBaseline(*check)
			if t != nil {
				fmt.Println(t.Render())
			}
			if err != nil {
				fail(err)
			}
			return
		}
		var ws []workload.Workload
		if *benchName != "" {
			w, ok := workload.ByName(*benchName)
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q; available: %v", *benchName, workload.Names()))
			}
			ws = []workload.Workload{w}
		}
		data, t, err := bench.PipelineFigure(*scale, *cores, nil, ws)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		if *baseline != "" {
			if err := data.WriteBaseline(*baseline); err != nil {
				fail(err)
			}
			fmt.Printf("baseline written to %s\n", *baseline)
		}
		return
	}

	if *durability {
		if *benchName != "" || *fig != 0 {
			fail(fmt.Errorf("-durability runs its own figure set and cannot be combined with -bench or -fig"))
		}
		t, err := bench.DurabilityOverhead(*scale, *cores)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		t, err = bench.RecoveryTime(*scale, *cores)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		t, err = bench.CrashWorkloadCheck(*scale, *cores)
		if err != nil {
			fail(err)
		}
		fmt.Println(t.Render())
		return
	}

	ws := workload.All()
	if *benchName != "" {
		w, ok := workload.ByName(*benchName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; available: %v\n", *benchName, workload.Names())
			os.Exit(2)
		}
		for _, fw := range workload.FaultBenchmarks() {
			if fw.Name() == w.Name() {
				fail(fmt.Errorf("benchmark %q needs a fault-injecting backend; run it via -durability", w.Name()))
			}
		}
		ws = []workload.Workload{w}
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
		t.AddRow(op, fmt.Sprintf("%d", q.N), cyc(q.P50), cyc(q.P95), cyc(q.P99), cyc(q.P999), cyc(q.Max))
	}
	return t
}

func cyc(v uint64) string { return fmt.Sprintf("%d", v) }
