// Command benchmark is the repository's benchmark: six workloads on the Hare
// reproduction, measured end to end in virtual time (the simulated machine)
// and host time (the simulator), and layer by layer. README.md in this
// directory is the manual; BENCHMARK.json at the root is the contract.
//
//	bash benchmark/run.sh -workload meta_churn -seed 1
//	bash benchmark/run.sh -all -out /tmp/run-a
//	bash benchmark/run.sh -compare /tmp/run-a /tmp/run-b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/trace"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     uint64
	// scale multiplies the workload's iteration counts (1 = the benchmark).
	scale float64
	// reps is the number of measured repetitions after the warm-up one;
	// 0 derives it from seconds, the time the run should measure for.
	reps    int
	seconds float64
	// traced adds the traced pass and the probes after the measured
	// repetitions; probeBatch is how long one probe batch runs.
	traced     bool
	probeBatch time.Duration
	out        string // directory for the result and span files; "" writes none
	cpuprofile string
}

// result is everything one run of one workload measured; it is what -out
// stores and -compare reads.
type result struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Note       string  `json:"note,omitempty"`
	Model      string  `json:"model"`
	Scale      float64 `json:"scale"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstFail string `json:"first_failure,omitempty"`

	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]value   `json:"per_layer,omitempty"`

	// Repetitions are the measured repetitions' raw values, Warmup the
	// discarded first one's, Traced the traced pass's. Medians can be
	// recomputed from them.
	Warmup      *repetition   `json:"warmup"`
	Repetitions []*repetition `json:"repetitions"`
	Traced      *repetition   `json:"traced,omitempty"`
}

const modelNote = "unvalidated: the repository holds no reference results from the paper, so no accuracy figure is given"

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's names and payloads are derived from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the run measures for; sets the number of repetitions")
	flag.IntVar(&o.reps, "reps", 0, "measured repetitions after the warm-up one (0: from -seconds)")
	traced := flag.Int("trace", 1, "1: add the traced pass and the probes and report the per-layer metrics; 0: end-to-end only")
	flag.StringVar(&o.out, "out", "", "directory for result-<workload>.json and the span files (default: none written)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured repetitions to this file")
	all := flag.Bool("all", false, "run every workload, each in its own process")
	compare := flag.Bool("compare", false, "compare two result files or directories: -compare a b")
	calibrate := flag.Bool("calibrate", false, "run -all three times and print the spread of every end-to-end metric")
	flag.Parse()
	o.scale, o.traced, o.probeBatch = 1, *traced != 0, 10*time.Millisecond

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files or directories")
			break
		}
		err = compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *calibrate:
		err = calibrateRuns(o)
	case *all:
		_, err = runAll(o)
	default:
		err = runAndReport(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return names
}

// runAndReport runs one workload, prints every metric, stores the artifacts,
// and prints the contract's JSON object as the last line of standard output.
func runAndReport(o options) error {
	res, spans, err := runWorkload(o)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if o.out != "" {
		if err := writeArtifacts(o.out, res, spans); err != nil {
			return err
		}
	}
	// With the traced pass the line carries the per-layer metrics, without
	// it the end-to-end ones.
	metrics := make(map[string]value)
	if o.traced {
		metrics = res.PerLayer
	} else {
		for name, s := range res.EndToEnd {
			metrics[name] = value{s.Median, s.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d calls and checks failed, first: %s", res.Workload, res.Failed, res.Attempted, res.FirstFail)
	}
	return nil
}

// tracedSpans is what the traced pass leaves for the span files.
type tracedSpans struct {
	rep    *repetition
	probes []probeSpan
}

// runWorkload is one run: a warm-up repetition, the measured repetitions,
// and (if asked) the traced pass and the probes.
func runWorkload(o options) (*result, *tracedSpans, error) {
	wl, err := newWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Workload: o.workload, Seed: o.seed, Scale: o.scale,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Model: modelNote, Correct: true,
	}
	if o.workload == "data_stream" {
		res.Note = "the eight 1 MiB files fit any one server's 32 MiB partition of the 256 MiB buffer cache: no round evicts"
	}
	count := func(rep *repetition) {
		res.Attempted += rep.Calls
		res.Failed += rep.Failed
		if res.FirstFail == "" {
			res.FirstFail = rep.FirstError
		}
	}

	// The first repetition in a process is slower in both clocks (cold
	// caches, heap still growing), so it is run and thrown away.
	warm, err := runRepetition(wl, trace.Config{})
	if err != nil {
		return nil, nil, err
	}
	count(warm)
	res.Warmup = warm
	reps := o.reps
	if reps == 0 {
		reps = repsFor(o.seconds, warm.WallS)
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < reps; i++ {
		rep, err := runRepetition(wl, trace.Config{})
		if err != nil {
			return nil, nil, err
		}
		count(rep)
		res.Repetitions = append(res.Repetitions, rep)
		if x, y := res.Repetitions[0].exactCounters(), rep.exactCounters(); !slices.Equal(x, y) {
			res.Failed++
			if res.FirstFail == "" {
				res.FirstFail = fmt.Sprintf("exact counters differ between repetitions of one seed: %v vs %v", x, y)
			}
		}
	}
	pprof.StopCPUProfile()
	res.Reps = reps
	res.EndToEnd = endToEndOf(res.Repetitions)

	var spans *tracedSpans
	if o.traced {
		// One sampled op leaves about six spans; sample so the run fits the ring.
		const ring = 1 << 18
		sample := 1 + warm.Calls*6/ring
		rep, err := runRepetition(wl, trace.Config{Sample: sample, Ring: ring})
		if err != nil {
			return nil, nil, err
		}
		count(rep)
		res.Traced = rep
		pt := pointOf(res.Repetitions[reps-1], wl.deployment(), filepath.Base(wl.exampleName()))
		probes, probeSpans := runProbes(pt, o.probeBatch)
		res.PerLayer = perLayerOf(res, pt, sample, probes)
		spans = &tracedSpans{rep, probeSpans}
	}
	res.Correct = res.Failed == 0
	return res, spans, nil
}

// repsFor is how many repetitions' timed regions add up to the time the run
// should measure for, given the warm-up's timed region. At least three are
// measured, so that a median exists on a slow machine too.
func repsFor(seconds, regionSeconds float64) int {
	return min(max(int(seconds/regionSeconds+0.5), 3), 15)
}

// endToEndOf reduces the measured repetitions to the end-to-end metrics.
// peak_rss_mb is read here, before the traced pass can raise it.
func endToEndOf(reps []*repetition) map[string]summary {
	raw := make(map[string][]float64)
	for _, r := range reps {
		calls := float64(r.Calls)
		raw["virt_kops_per_s"] = append(raw["virt_kops_per_s"], calls/r.VirtS/1000)
		raw["virt_op_mean_us"] = append(raw["virt_op_mean_us"], r.MeanUs)
		raw["virt_op_tail_us"] = append(raw["virt_op_tail_us"], r.TailUs)
		raw["wall_us_per_op"] = append(raw["wall_us_per_op"], r.WallS*1e6/calls)
		raw["allocs_per_op"] = append(raw["allocs_per_op"], float64(r.Mallocs)/calls)
		raw["setup_s"] = append(raw["setup_s"], r.SetupS)
	}
	raw["peak_rss_mb"] = []float64{peakRSSMB()}
	out := make(map[string]summary)
	for _, m := range endToEnd {
		out[m.name] = summarize(raw[m.name], m.unit)
	}
	return out
}

// perLayerOf assembles every per-layer metric: counters as the median over
// the measured repetitions, the station split and overheads from the traced
// pass, the probes, and the attribution of wall_us_per_op.
func perLayerOf(res *result, pt operatingPoint, sample int, probes map[string]float64) map[string]value {
	v := make(map[string]float64)
	med := func(f func(r *repetition) float64) float64 {
		xs := make([]float64, len(res.Repetitions))
		for i, r := range res.Repetitions {
			xs[i] = f(r)
		}
		return median(xs)
	}
	perOp := func(f func(r *repetition) uint64) float64 {
		return med(func(r *repetition) float64 { return float64(f(r)) / float64(r.Calls) })
	}
	for _, c := range counterMetrics {
		v[c.name] = perOp(c.counter)
	}
	v["wal.records_per_flush"] = med(func(r *repetition) float64 {
		if r.WalFlushes == 0 {
			return 0
		}
		return float64(r.WalRecords) / float64(r.WalFlushes)
	})
	v["repl.max_lag_records"] = med(func(r *repetition) float64 { return float64(r.ReplMaxLag) })
	v["server.load_imbalance"] = med(func(r *repetition) float64 { return r.Imbalance })
	v["server.parked_per_kop"] = 1000 * perOp(func(r *repetition) uint64 { return r.Parked })
	v["runtime.gc_cpu_share"] = med(func(r *repetition) float64 { return r.GCCPUShare })
	v["runtime.gc_pause_ms"] = med(func(r *repetition) float64 { return r.GCPauseMs })
	v["runtime.heap_inuse_mb"] = med(func(r *repetition) float64 { return r.HeapInuseMB })

	v["client.virt_op_p50_us"] = med(func(r *repetition) float64 { return r.P50Us })
	v["client.virt_op_p99_us"] = med(func(r *repetition) float64 { return r.P99Us })
	for _, op := range []string{"open", "close", "unlink", "stat", "read", "rename", "readdir"} {
		v["client.virt_"+op+"_p99_us"] = med(func(r *repetition) float64 { return r.OpP99Us[op] })
	}

	// The traced pass: self time by span kind per sampled op, and what
	// tracing cost in each clock against the untraced median.
	tr := res.Traced
	self, roots := selfTimes(tr.spans)
	usPerOp := func(kinds ...trace.Kind) float64 {
		if roots == 0 {
			return 0
		}
		var c float64
		for _, k := range kinds {
			c += float64(self[k])
		}
		// VirtS/VirtCycles is the cost model's seconds per cycle.
		return c * tr.VirtS / float64(tr.VirtCycles) * 1e6 / float64(roots)
	}
	v["client.virt_self_us_per_op"] = usPerOp(trace.KindRoot, trace.KindRPC, trace.KindEpochRefresh)
	v["msg.virt_net_us_per_op"] = usPerOp(trace.KindNetReq)
	v["server.virt_queue_us_per_op"] = usPerOp(trace.KindQueue)
	v["server.virt_service_us_per_op"] = usPerOp(trace.KindService, trace.KindSub)
	v["wal.virt_commit_us_per_op"] = usPerOp(trace.KindWAL)
	v["ncc.virt_writeback_us_per_op"] = usPerOp(trace.KindWriteback)
	v["repl.virt_ship_us_per_op"] = usPerOp(trace.KindRepl)
	// The sampled service time, scaled up to every op, over the servers'
	// capacity for the region.
	v["server.busy_share"] = float64(self[trace.KindService]+self[trace.KindSub]) * float64(sample) /
		(float64(tr.VirtCycles) * float64(pt.servers))
	v["trace.overhead_virt_pct"] = 100 * (tr.VirtS/med(func(r *repetition) float64 { return r.VirtS }) - 1)
	v["trace.overhead_wall_pct"] = 100 * (tr.WallS/med(func(r *repetition) float64 { return r.WallS }) - 1)
	v["trace.spans_dropped"] = float64(tr.dropped)
	v["trace.sample_n"] = float64(sample)

	for name, ns := range probes {
		v[name] = ns
	}

	// wall_us_per_op attributed: each layer's probe cost times how often
	// the workload called it (README.md gives the formulas), and the rest.
	serverOps := perOp(func(r *repetition) uint64 { return r.ServerOps })
	rpcs := v["client.rpcs_per_op"]
	echo, gate := v["msg.rpc_echo_ns"], 0.0
	if pt.parallel {
		echo = v["msg.rpc_echo_gated_ns"]
		gate = v["msg.msgs_per_op"]*v["sim.gate_bump_ns"] + rpcs*v["sim.gate_safeat_ns"]
	}
	v["msg.wall_est_us_per_op"] = v["msg.msgs_per_op"] / 2 * echo / 1000
	v["proto.wall_est_us_per_op"] = (rpcs*(v["proto.req_marshal_ns"]+v["proto.req_unmarshal_ns"]+
		v["proto.resp_marshal_ns"]+v["proto.resp_unmarshal_ns"]) +
		v["client.batched_subops_per_op"]*v["proto.batch_roundtrip_ns"]) / 1000
	v["table.wall_est_us_per_op"] = (serverOps*(v["table.get_ns"]+v["table.sharded_get_ns"]) + rpcs*v["place.route_ns"]) / 1000
	v["sim.wall_est_us_per_op"] = ((1+serverOps)*v["sim.coretime_execute_ns"] + gate) / 1000
	v["ncc.wall_est_us_per_op"] = (perOp(func(r *repetition) uint64 { return r.BytesRead })/blockSize*v["ncc.read_hit_ns_per_4k"] +
		perOp(func(r *repetition) uint64 { return r.BytesWritten })/blockSize*v["ncc.write_ns_per_4k"] +
		v["ncc.wb_lines_per_op"]*v["ncc.writeback_ns_per_line"]) / 1000
	walNs := v["wal.append_ns_per_record"]
	if v["repl.msgs_per_op"] > 0 {
		walNs += v["wal.encode_ns_per_record"] + v["repl.ingest_ns_per_record"]
	}
	v["wal.wall_est_us_per_op"] = v["wal.records_per_op"] * walNs / 1000
	rest := res.EndToEnd["wall_us_per_op"].Median
	for _, layer := range []string{"msg", "proto", "table", "sim", "ncc", "wal"} {
		rest -= v[layer+".wall_est_us_per_op"]
	}
	v["harness.wall_residual_us_per_op"] = rest

	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = value{v[m.name], m.unit}
	}
	return out
}

// printResult prints every metric by name with its unit.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "%s  seed %d  %d measured repetitions after one warm-up  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		res.Workload, res.Seed, res.Reps, res.NProc, res.GOMAXPROCS, res.GoVersion, res.Commit)
	fmt.Fprintf(w, "model: %s\n", res.Model)
	if res.Note != "" {
		fmt.Fprintf(w, "note: %s\n", res.Note)
	}
	fmt.Fprintf(w, "calls attempted %d, failed %d\n", res.Attempted, res.Failed)
	fmt.Fprintf(w, "%-34s %14s %-9s %14s %14s %3s\n", "end-to-end metric", "median", "unit", "q1", "q3", "n")
	for _, m := range endToEnd {
		s := res.EndToEnd[m.name]
		fmt.Fprintf(w, "%-34s %14.6g %-9s %14.6g %14.6g %3d\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "%-34s %14s %-9s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		exact := ""
		if m.exact {
			exact = "exact"
		}
		fmt.Fprintf(w, "%-34s %14.6g %-9s %s\n", m.name, res.PerLayer[m.name].Value, m.unit, exact)
	}
}

// writeArtifacts stores the result and, after a traced pass, the two span
// files: the system tracer's spans on the virtual clock and the benchmark's
// own spans on the wall clock.
func writeArtifacts(dir string, res *result, spans *tracedSpans) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result-"+res.Workload+".json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	if err := writeVirtualSpans(filepath.Join(dir, "spans-"+res.Workload+".json"), spans.rep.spans); err != nil {
		return err
	}
	return writeWallTrack(filepath.Join(dir, "spans-wall-"+res.Workload+".json"), spans.rep, spans.probes)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
