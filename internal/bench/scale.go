package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The harness-scaling sweep (`hare-bench -scalesweep`): the `scale` workload
// — disjoint per-worker subtrees of creates and stats — runs at server counts
// far beyond the paper's machine (64–1024) with namespaces into the millions
// of files. Unlike every other figure, the quantity under test here is the
// simulator itself: real wall-clock time, allocations per simulated
// operation, and peak memory, not virtual-time throughput.

// ScaleRung is one (server count, namespace size) sweep point.
type ScaleRung struct {
	// Servers is the fleet size; the deployment timeshares, so it is also
	// the core count and the worker count.
	Servers int
	// Files is the total number of files created across all workers.
	Files int
	// Parallel runs the rung under the parallel virtual-time engine (spec
	// suffix ":par"); hare-bench -parallel sets it on every rung.
	Parallel bool
	// Cores is the GOMAXPROCS the rung runs at (spec suffix "@N"); zero
	// leaves the process's setting. A rung asking for more than the machine
	// has is skipped.
	Cores int
}

// String writes the rung as a -scalesweep spec entry: "64:32768:par@2".
func (r ScaleRung) String() string {
	s := fmt.Sprintf("%d:%d", r.Servers, r.Files)
	if r.Parallel {
		s += ":par"
	}
	if r.Cores > 0 {
		s += fmt.Sprintf("@%d", r.Cores)
	}
	return s
}

// DefaultScaleRungs is the committed sweep: the paper-scale 8-server rung as
// the wall-time yardstick, the acceptance rung (64 servers, one million
// files), and wider fleets at namespace sizes that keep the sweep minutes,
// not hours.
var DefaultScaleRungs = []ScaleRung{
	{Servers: 8, Files: 125_000},
	{Servers: 64, Files: 1_000_000},
	{Servers: 256, Files: 512_000},
	{Servers: 1024, Files: 262_144},
}

// ScalePoint is one measured rung.
type ScalePoint struct {
	Servers int  `json:"servers"`
	Workers int  `json:"workers"`
	Files   int  `json:"files"`
	Ops     int  `json:"ops"`
	Par     bool `json:"parallel"`
	// Rung is the -scalesweep entry the point measures ("64:32768:par@2").
	Rung string `json:"rung"`

	// WallSeconds is real time for the timed region (setup excluded);
	// VirtSeconds is the same region in simulated time.
	WallSeconds float64 `json:"wall_seconds"`
	VirtSeconds float64 `json:"virt_seconds"`

	// AllocsPerOp is heap allocations per simulated operation during the
	// timed region (runtime.MemStats.Mallocs delta / Ops).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HeapBytes is the live heap after the run (post-GC).
	HeapBytes uint64 `json:"heap_bytes"`
	// PeakRSSBytes is the process's high-water resident set (VmHWM); it is
	// monotone across rungs of one process, so only the largest rung's value
	// is a true per-rung peak.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`

	// LoadImbalance is the busiest server's share of the timed region's
	// requests over the mean server's (stats.Imbalance).
	LoadImbalance float64 `json:"load_imbalance"`

	// GOMAXPROCS and NProc say what the wall-clock figures were measured on.
	GOMAXPROCS int `json:"gomaxprocs"`
	NProc      int `json:"nproc"`
	// IdleShare is the part of the timed region's GOMAXPROCS x wall CPU time
	// in which no Go code ran (runtime/metrics /cpu/classes/idle over total,
	// between the collections that bracket the region).
	IdleShare float64 `json:"idle_share"`
	// Gate is the parallel engine's work during the timed region (absent on
	// serialized rungs): raw counts, to be divided by Ops.
	Gate *sim.GateStats `json:"gate,omitempty"`
}

// KOpsPerWallSec is the simulator's real-time throughput: simulated
// operations per wall-clock second, in thousands.
func (p ScalePoint) KOpsPerWallSec() float64 {
	if p.WallSeconds == 0 {
		return 0
	}
	return float64(p.Ops) / p.WallSeconds / 1000
}

// ScaleData holds the full sweep.
type ScaleData struct {
	Points []ScalePoint `json:"points"`
}

// ScaleSweepFigure runs the sweep. Each rung builds a fresh timesharing
// deployment with one worker per server, splits the file total evenly among
// the workers, and measures the run phase under wall-clock, allocation, and
// RSS instrumentation.
//
// The second table is the parallel engine's own ledger, one row per parallel
// rung: gate events per simulated op (DESIGN.md §13).
func ScaleSweepFigure(rungs []ScaleRung) (*ScaleData, []*Table, error) {
	data := &ScaleData{}
	t := &Table{
		Title: "Harness scaling sweep: wall-clock cost of big fleets and namespaces",
		Columns: []string{"servers", "engine", "cores", "files", "ops", "wall (s)", "virt (ms)", "load imbalance",
			"kops/wall-s", "wall us/op", "idle share", "allocs/op", "heap (MiB)", "peak rss (MiB)"},
		Note: fmt.Sprintf("measures the simulator, not Hare, on %d CPUs: cores = GOMAXPROCS; wall = real time for the timed region; load imbalance = busiest server's requests over the mean; idle share = part of cores x wall in which no Go code ran; allocs/op = heap allocations per simulated op; peak rss is process-lifetime high water.",
			runtime.NumCPU()),
	}
	gt := &Table{
		Title: "Parallel engine: sim.Gate events per simulated op",
		Columns: []string{"servers", "files", "cores", "lanes", "bumps/op", "floor moves/op", "floor raises/op",
			"parks/op", "wakes/op", "reparks/op", "safe at push/op", "locks/op", "idle share"},
		Note: "bumps = lane frontier changes; floor moves = safe-time recomputations (the floor holder changed it); parks = consumers that went to sleep on an unsafe head; wakes = consumers a floor raise signalled; reparks = wake-ups that slept again without popping; safe at push = requests a sleeping server could take the moment their sender offered them; locks = acquisitions of the gate's mutex.",
	}
	for _, r := range rungs {
		if r.Cores > runtime.NumCPU() {
			t.Note += fmt.Sprintf(" Skipped %v: the machine has %d CPUs.", r, runtime.NumCPU())
			continue
		}
		p, err := scalePoint(r)
		if err != nil {
			return nil, nil, err
		}
		data.Points = append(data.Points, p)
		engine := "serialized"
		if p.Par {
			engine = "parallel"
		}
		ops := float64(p.Ops)
		t.AddRow(fmt.Sprintf("%d", p.Servers), engine, fmt.Sprintf("%d", p.GOMAXPROCS),
			fmt.Sprintf("%d", p.Files), fmt.Sprintf("%d", p.Ops),
			f2(p.WallSeconds), fmt.Sprintf("%.3g", p.VirtSeconds*1000), f2(p.LoadImbalance), f2(p.KOpsPerWallSec()),
			f2(p.WallSeconds*1e6/ops), f2(p.IdleShare), f2(p.AllocsPerOp), f2(float64(p.HeapBytes)/(1<<20)),
			f2(float64(p.PeakRSSBytes)/(1<<20)))
		if g := p.Gate; g != nil {
			gt.AddRow(fmt.Sprintf("%d", p.Servers), fmt.Sprintf("%d", p.Files), fmt.Sprintf("%d", p.GOMAXPROCS),
				fmt.Sprintf("%d", g.Lanes),
				f2(float64(g.Bumps)/ops), f2(float64(g.Recomputes)/ops), f2(float64(g.FloorRaises)/ops),
				f2(float64(g.Parks)/ops), f2(float64(g.Wakes)/ops), f2(float64(g.Reparks)/ops),
				f2(float64(g.SafePushes)/ops), f2(float64(g.Locks)/ops), f2(p.IdleShare))
		}
	}
	tables := []*Table{t}
	if len(gt.Rows) > 0 {
		tables = append(tables, gt)
	}
	return data, tables, nil
}

// scalePoint measures one rung.
func scalePoint(r ScaleRung) (ScalePoint, error) {
	if r.Cores > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.Cores))
	}
	opts := DefaultHare(r.Servers)
	opts.Parallel = r.Parallel
	w := workload.ScaleSweep{}

	b, err := HareFactory(opts)(w.Placement())
	if err != nil {
		return ScalePoint{}, err
	}
	defer b.Close()

	workers := len(b.Cores)
	w.FilesPerWorker = r.Files / workers
	if w.FilesPerWorker < 1 {
		w.FilesPerWorker = 1
	}
	env := &workload.Env{Procs: b.Procs, Cores: b.Cores, Scale: 1.0}
	if err := w.Setup(env); err != nil {
		return ScalePoint{}, fmt.Errorf("bench: scale setup at %d servers: %w", r.Servers, err)
	}

	virtStart := b.Now()
	loads := b.Loads()
	var gateBefore sim.GateStats
	if b.Gate != nil {
		gateBefore = b.Gate()
	}
	// The collection also refreshes the runtime's CPU-class estimates, which
	// only move at the end of one.
	runtime.GC()
	idleBefore, cpuBefore := cpuSeconds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wallStart := time.Now()

	ops, err := w.Run(env)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("bench: scale run at %d servers: %w", r.Servers, err)
	}

	wall := time.Since(wallStart)
	runtime.ReadMemStats(&after)
	virt := b.Now() - virtStart
	runtime.GC()
	idleAfter, cpuAfter := cpuSeconds()
	for i, l := range b.Loads() {
		loads[i] = l - loads[i]
	}

	p := ScalePoint{
		Servers:       r.Servers,
		Workers:       workers,
		Files:         w.FilesPerWorker * workers,
		Ops:           ops,
		Par:           r.Parallel,
		Rung:          r.String(),
		WallSeconds:   wall.Seconds(),
		VirtSeconds:   b.Seconds(virt),
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(ops),
		HeapBytes:     after.HeapInuse,
		PeakRSSBytes:  peakRSSBytes(),
		LoadImbalance: stats.Imbalance(loads),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NProc:         runtime.NumCPU(),
	}
	if cpuAfter > cpuBefore {
		p.IdleShare = (idleAfter - idleBefore) / (cpuAfter - cpuBefore)
	}
	if b.Gate != nil {
		g := b.Gate().Sub(gateBefore)
		p.Gate = &g
	}
	return p, nil
}

// cpuSeconds reads the runtime's running estimates of idle and of total
// available CPU time (GOMAXPROCS integrated over wall time).
func cpuSeconds() (idle, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/idle:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSBytes reads the process's resident-set high water from
// /proc/self/status (VmHWM); zero on platforms without it.
func peakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// ParseScaleRungs parses a sweep spec like "8:125000,64:1000000" (or bare
// server counts "8,64", which take one thousand files per worker) into
// rungs. A ":par" suffix ("64:32768:par") runs that rung under the parallel
// engine; an "@N" suffix after that ("64:32768:par@1") runs it at
// GOMAXPROCS=N.
func ParseScaleRungs(spec string) ([]ScaleRung, error) {
	if spec == "" {
		return nil, nil
	}
	var out []ScaleRung
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r := ScaleRung{}
		if i := strings.IndexByte(part, '@'); i >= 0 {
			c, err := strconv.Atoi(part[i+1:])
			if err != nil || c <= 0 {
				return nil, fmt.Errorf("bench: bad core count %q in -scalesweep spec", part[i+1:])
			}
			part, r.Cores = part[:i], c
		}
		if rest, ok := strings.CutSuffix(part, ":par"); ok {
			part, r.Parallel = rest, true
		}
		srv, files := part, ""
		if i := strings.IndexByte(part, ':'); i >= 0 {
			srv, files = part[:i], part[i+1:]
		}
		n, err := strconv.Atoi(srv)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bench: bad server count %q in -scalesweep spec", srv)
		}
		r.Servers = n
		if files != "" {
			fn, err := strconv.Atoi(files)
			if err != nil || fn <= 0 {
				return nil, fmt.Errorf("bench: bad file count %q in -scalesweep spec", files)
			}
			r.Files = fn
		} else {
			// One thousand files per worker keeps unspecified rungs quick.
			r.Files = 1000 * n
		}
		out = append(out, r)
	}
	return out, nil
}

// ScaleBaseline is the JSON snapshot committed as BENCH_scale.json.
type ScaleBaseline struct {
	Note   string       `json:"note"`
	Points []ScalePoint `json:"points"`
}

// ScaleBaselineSpec is the -scalesweep spec BENCH_scale.json is generated
// from ("-scalesweep baseline"): the default rungs, plus the 8-server rung
// and a 64-server / 32768-file rung under both engines, so the parallel
// engine's cost per simulated op sits next to its serialized twin's — the
// 64-server twins along the cores axis too (a rung wider than the machine is
// skipped).
const ScaleBaselineSpec = "8:125000,8:125000:par,64:32768@1,64:32768:par@1,64:32768@2,64:32768:par@2,64:32768@4,64:32768:par@4,64:32768@8,64:32768:par@8,64:1000000,256:512000,1024:262144"

// WriteBaseline serializes the sweep to path as indented JSON.
func (d *ScaleData) WriteBaseline(path string) error {
	b := ScaleBaseline{
		Note:   "hare-bench -scalesweep baseline; ops and load_imbalance follow from the rung alone and `hare-bench -scalesweep baseline -check BENCH_scale.json` compares them exactly; wall-clock figures are machine-dependent (each point records its GOMAXPROCS and nproc) — compare shapes, parallel against serialized twins, allocs/op and gate counts per op, not absolute seconds. Regenerate with: hare-bench -scalesweep baseline -baseline BENCH_scale.json (the rungs '" + ScaleBaselineSpec + "')",
		Points: d.Points,
	}
	buf, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// CheckScaleBaseline re-runs the given rungs and compares each with the point
// the committed baseline at path records for it: ops and load imbalance
// exactly — the error names every rung that differs. Rungs the file does not
// record (it was made on a narrower machine) and rungs wider than this
// machine are skipped, and the table's note names them. Virtual and wall
// times are printed side by side and nothing gates them.
func CheckScaleBaseline(path string, rungs []ScaleRung) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var want ScaleBaseline
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t := &Table{
		Title: fmt.Sprintf("Harness scaling sweep against %s", path),
		Columns: []string{"servers", "engine", "cores", "files", "ops", "load imbalance",
			"virt (ms)", "committed", "wall (s)", "committed", "exact columns"},
		Note: "exact columns: ops, load imbalance; times are printed, not gated.",
	}
	recorded := map[string]ScalePoint{}
	for _, w := range want.Points {
		recorded[w.Rung] = w
	}
	var run []ScaleRung
	for _, r := range rungs {
		// The sweep itself skips, and names, a rung wider than the machine.
		if _, ok := recorded[r.String()]; ok || r.Cores > runtime.NumCPU() {
			run = append(run, r)
		} else {
			t.Note += fmt.Sprintf(" Skipped %v: %s does not record it.", r, path)
		}
	}
	data, tables, err := ScaleSweepFigure(run)
	if err != nil {
		return nil, err
	}
	if i := strings.Index(tables[0].Note, " Skipped"); i >= 0 {
		t.Note += tables[0].Note[i:]
	}
	if len(data.Points) == 0 {
		return t, fmt.Errorf("no rung of the sweep could be compared with %s", path)
	}
	var differ []string
	for _, got := range data.Points {
		verdict, committed := "same", recorded[got.Rung]
		if got.Ops != committed.Ops || got.LoadImbalance != committed.LoadImbalance {
			verdict = "DIFFER"
			differ = append(differ, fmt.Sprintf("%s: ops %d, load imbalance %v; committed %d, %v",
				got.Rung, got.Ops, got.LoadImbalance, committed.Ops, committed.LoadImbalance))
		}
		engine := "serialized"
		if got.Par {
			engine = "parallel"
		}
		t.AddRow(fmt.Sprint(got.Servers), engine, fmt.Sprint(got.GOMAXPROCS), fmt.Sprint(got.Files),
			fmt.Sprint(got.Ops), f2(got.LoadImbalance),
			fmt.Sprintf("%.3g", got.VirtSeconds*1000), fmt.Sprintf("%.3g", committed.VirtSeconds*1000),
			f2(got.WallSeconds), f2(committed.WallSeconds), verdict)
	}
	if differ != nil {
		return t, fmt.Errorf("%d of %d rungs differ from %s in an exact column:\n%s",
			len(differ), len(data.Points), path, strings.Join(differ, "\n"))
	}
	return t, nil
}
