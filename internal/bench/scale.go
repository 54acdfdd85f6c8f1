package bench

import (
	"bufio"
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

// The harness-scaling sweep (`hare-bench -sweep scale`): the `scale` workload
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
	// suffix ":par").
	Parallel bool
	// Cores is the GOMAXPROCS the rung runs at (spec suffix "@N"); zero
	// leaves the process's setting. A rung asking for more than the machine
	// has is skipped.
	Cores int
}

// String writes the rung as a -rungs spec entry: "64:32768:par@2".
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

// defaultScaleRungs is the sweep when -rungs names none: the paper-scale
// 8-server rung as the wall-time yardstick, the acceptance rung (64 servers,
// one million files), and wider fleets at namespace sizes that keep the
// sweep minutes, not hours.
const defaultScaleRungs = "8:125000,64:1000000,256:512000,1024:262144"

// baselineScaleRungs is the rungs BENCH_scale.json is made at ("-rungs
// baseline"): the default rungs, plus the 8-server rung and a 64-server /
// 32768-file rung under both engines, so the parallel engine's cost per
// simulated op sits next to its serialized twin's — the 64-server twins
// along the cores axis too (a rung wider than the machine is skipped).
const baselineScaleRungs = "8:125000,8:125000:par,64:32768@1,64:32768:par@1,64:32768@2,64:32768:par@2,64:32768@4,64:32768:par@4,64:32768@8,64:32768:par@8,64:1000000,256:512000,1024:262144"

// ScalePoint is one measured rung.
type ScalePoint struct {
	Servers int  `json:"servers"`
	Workers int  `json:"workers"`
	Files   int  `json:"files"`
	Ops     int  `json:"ops"`
	Par     bool `json:"parallel"`
	// Rung is the -rungs entry the point measures ("64:32768:par@2").
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

// allocSlack is how far above its committed allocations per op a rung may
// come: the repository benchmark's bound on allocs_per_op. Three sweeps of
// the committed rungs on one commit repeat within 0.05 % of each other.
const allocSlack = 0.01

func (p ScalePoint) key() string { return p.Rung }

func (p ScalePoint) gated(c ScalePoint) ScalePoint {
	c.Ops, c.LoadImbalance = p.Ops, p.LoadImbalance
	if p.AllocsPerOp > c.AllocsPerOp*(1+allocSlack) {
		c.AllocsPerOp = p.AllocsPerOp
	}
	return c
}

// The scale sweep runs each rung in a fresh timesharing deployment with one
// worker per server, splits the file total evenly among the workers, and
// measures the run phase under wall-clock, allocation, and RSS
// instrumentation. Its second table is the parallel engine's own ledger, one
// row per parallel rung: gate events per simulated op (DESIGN.md §13).
var scaleSweep = &sweep[ScalePoint]{
	name:  "scale",
	title: "Harness scaling sweep: wall-clock cost of big fleets and namespaces",
	note: fmt.Sprintf("measures the simulator, not Hare: cores = GOMAXPROCS; wall = real time for the timed region; load imbalance = busiest server's requests over the mean; idle share = part of cores x wall in which no Go code ran; allocs/op = heap allocations per simulated op; peak rss is process-lifetime high water. "+
		"Gated: Ops and LoadImbalance exactly, AllocsPerOp at most %.0f %% above the committed figure; wall-clock figures are machine-dependent (each point records its GOMAXPROCS and nproc), heap and times are printed, not gated.", allocSlack*100),
	columns: []string{"servers", "engine", "cores", "files", "ops", "wall (s)", "virt (ms)", "load imbalance",
		"kops/wall-s", "wall us/op", "idle share", "allocs/op", "heap (MiB)", "peak rss (MiB)"},
	row: func(p ScalePoint) []string {
		return []string{fmt.Sprint(p.Servers), map[bool]string{false: "serialized", true: "parallel"}[p.Par], fmt.Sprint(p.GOMAXPROCS), fmt.Sprint(p.Files), fmt.Sprint(p.Ops),
			f2(p.WallSeconds), fmt.Sprintf("%.3g", p.VirtSeconds*1000), f2(p.LoadImbalance), f2(p.KOpsPerWallSec()),
			f2(p.WallSeconds * 1e6 / float64(p.Ops)), f2(p.IdleShare), fmt.Sprintf("%.4f", p.AllocsPerOp),
			f2(float64(p.HeapBytes) / (1 << 20)), f2(float64(p.PeakRSSBytes) / (1 << 20))}
	},
	beside: []int{5, 6, 11, 12},
	rungs: func(spec string) string {
		switch spec {
		case "", "default":
			return defaultScaleRungs
		case "baseline":
			return baselineScaleRungs
		}
		return spec
	},
	run: func(p Params) ([]ScalePoint, map[string]string, error) {
		rungs, err := ParseScaleRungs(p.Rungs)
		if err != nil {
			return nil, nil, err
		}
		return scalePoints(rungs)
	},
	more: gateTable,
}

// scalePoints measures each rung the machine has the CPUs for; skipped names
// the others.
func scalePoints(rungs []ScaleRung) (points []ScalePoint, skipped map[string]string, err error) {
	for _, r := range rungs {
		if r.Cores > runtime.NumCPU() {
			if skipped == nil {
				skipped = map[string]string{}
			}
			skipped[r.String()] = fmt.Sprintf("the machine has %d CPUs", runtime.NumCPU())
			continue
		}
		p, err := scalePoint(r)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
	}
	return points, skipped, nil
}

// gateTable is the parallel rungs' sim.Gate events per simulated op.
func gateTable(points []ScalePoint) []*Table {
	gt := &Table{
		Title: "Parallel engine: sim.Gate events per simulated op",
		Columns: []string{"servers", "files", "cores", "lanes", "bumps/op", "floor moves/op", "floor raises/op",
			"parks/op", "wakes/op", "reparks/op", "safe at push/op", "locks/op", "idle share"},
		Note: "bumps = lane frontier changes; floor moves = safe-time recomputations (the floor holder changed it); parks = consumers that went to sleep on an unsafe head; wakes = consumers a floor raise signalled; reparks = wake-ups that slept again without popping; safe at push = requests a sleeping server could take the moment their sender offered them; locks = acquisitions of the gate's mutex.",
	}
	for _, p := range points {
		g := p.Gate
		if g == nil {
			continue
		}
		per := func(n uint64) string { return f2(float64(n) / float64(p.Ops)) }
		gt.AddRow(fmt.Sprint(p.Servers), fmt.Sprint(p.Files), fmt.Sprint(p.GOMAXPROCS), fmt.Sprint(g.Lanes),
			per(g.Bumps), per(g.Recomputes), per(g.FloorRaises), per(g.Parks), per(g.Wakes), per(g.Reparks),
			per(g.SafePushes), per(g.Locks), f2(p.IdleShare))
	}
	if len(gt.Rows) == 0 {
		return nil
	}
	return []*Table{gt}
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
	w.Prepare(env) // names are built here, not in the timed region

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
				return nil, fmt.Errorf("bench: bad core count %q in -rungs spec", part[i+1:])
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
			return nil, fmt.Errorf("bench: bad server count %q in -rungs spec", srv)
		}
		r.Servers = n
		if files != "" {
			fn, err := strconv.Atoi(files)
			if err != nil || fn <= 0 {
				return nil, fmt.Errorf("bench: bad file count %q in -rungs spec", files)
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
