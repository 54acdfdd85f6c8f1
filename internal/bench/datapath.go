package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/workload"
)

// The data-path sweep (DESIGN.md §8): the data-movement-bound workloads run
// with the zero-waste data path enabled and disabled at several server
// counts, and the table reports runtime alongside the line counters, so the
// optimization's win is quantified in both dimensions — virtual time and
// 64-byte lines moved through the memory system.

// DefaultDatapathServerCounts are the server counts swept by DatapathFigure.
var DefaultDatapathServerCounts = []int{1, 2, 4, 8}

// DatapathPoint is one (benchmark, server count) measurement pair.
type DatapathPoint struct {
	Benchmark string
	Servers   int
	Ops       int

	OnSeconds  float64
	OffSeconds float64

	// 64-byte lines written back to DRAM during the timed region.
	OnWbLines  uint64
	OffWbLines uint64

	// Resident lines dropped by open-time invalidation.
	OnInvLines  uint64
	OffInvLines uint64

	// Resident lines preserved by version-matched opens (data path on).
	SkipLines uint64

	OnBytes  uint64
	OffBytes uint64
}

// Speedup is the runtime ratio off/on (>1 means the data path helps).
func (p DatapathPoint) Speedup() float64 {
	if p.OnSeconds == 0 {
		return 0
	}
	return p.OffSeconds / p.OnSeconds
}

// OnDataLines is the total lines the data path moved with the technique on.
func (p DatapathPoint) OnDataLines() uint64 { return p.OnWbLines + p.OnInvLines }

// OffDataLines is the total lines moved with the technique off.
func (p DatapathPoint) OffDataLines() uint64 { return p.OffWbLines + p.OffInvLines }

// LineReduction is the fraction of data lines eliminated by the data path
// (0.25 = 25% fewer lines moved).
func (p DatapathPoint) LineReduction() float64 {
	if p.OffDataLines() == 0 {
		return 0
	}
	return 1 - float64(p.OnDataLines())/float64(p.OffDataLines())
}

// DatapathData holds the full sweep.
type DatapathData struct {
	Cores  int
	Scale  float64
	Points []DatapathPoint
}

// DatapathFigure runs the sweep. The default workload set is the
// data-movement-bound pair — the bigfile read/overwrite benchmark and
// sequential writes — at the default server counts.
func DatapathFigure(scale float64, cores int, serverCounts []int, ws []workload.Workload) (*DatapathData, *Table, error) {
	if cores == 0 {
		cores = 8
	}
	if len(serverCounts) == 0 {
		serverCounts = DefaultDatapathServerCounts
	}
	if ws == nil {
		ws = []workload.Workload{workload.BigFile{}, workload.Writes{}}
	}
	data := &DatapathData{Cores: cores, Scale: scale}
	t := &Table{
		Title: fmt.Sprintf("Data-path sweep: dirty-line writeback + version-skip invalidation on vs off (%d cores)", cores),
		Columns: []string{"benchmark", "servers", "time on (ms)", "time off (ms)", "speedup",
			"lines on", "lines off", "line cut", "skipped", "bytes cut"},
		Note: "speedup = off/on runtime; lines = 64B lines written back + invalidated; skipped = resident lines version-matched opens preserved; bytes cut = wire bytes saved by extent coding and fewer flushes.",
	}
	for _, w := range ws {
		for _, nsrv := range serverCounts {
			if nsrv > cores {
				continue
			}
			p, err := datapathPoint(scale, cores, nsrv, w)
			if err != nil {
				return nil, nil, err
			}
			data.Points = append(data.Points, p)
			bytesCut := 0.0
			if p.OffBytes > 0 {
				bytesCut = 1 - float64(p.OnBytes)/float64(p.OffBytes)
			}
			t.AddRow(p.Benchmark, fmt.Sprintf("%d", p.Servers),
				f2(p.OnSeconds*1000), f2(p.OffSeconds*1000), f2(p.Speedup()),
				fmt.Sprintf("%d", p.OnDataLines()), fmt.Sprintf("%d", p.OffDataLines()),
				pct(p.LineReduction()), fmt.Sprintf("%d", p.SkipLines), pct(bytesCut))
		}
	}
	return data, t, nil
}

// datapathPoint measures one benchmark at one server count in both modes.
func datapathPoint(scale float64, cores, nsrv int, w workload.Workload) (DatapathPoint, error) {
	onOpts := DefaultHare(cores)
	onOpts.Servers = nsrv
	offOpts := onOpts
	offOpts.Techniques.DataPath = false

	on, err := RunWorkload(HareFactory(onOpts), w, scale)
	if err != nil {
		return DatapathPoint{}, err
	}
	off, err := RunWorkload(HareFactory(offOpts), w, scale)
	if err != nil {
		return DatapathPoint{}, err
	}
	p := DatapathPoint{
		Benchmark:  w.Name(),
		Servers:    nsrv,
		Ops:        on.Ops,
		OnSeconds:  on.Seconds,
		OffSeconds: off.Seconds,
	}
	if on.Econ != nil {
		p.OnWbLines = on.Econ.WbLines
		p.OnInvLines = on.Econ.InvLines
		p.SkipLines = on.Econ.SkipLines
		p.OnBytes = on.Econ.Bytes
	}
	if off.Econ != nil {
		p.OffWbLines = off.Econ.WbLines
		p.OffInvLines = off.Econ.InvLines
		p.OffBytes = off.Econ.Bytes
	}
	return p, nil
}

// datapathBaseline is the JSON snapshot committed as BENCH_datapath.json so
// future changes have a data-movement trajectory to compare against.
type datapathBaseline struct {
	Note   string          `json:"note"`
	Scale  float64         `json:"scale"`
	Cores  int             `json:"cores"`
	Points []DatapathPoint `json:"points"`
}

// WriteBaseline serializes the sweep to path as indented JSON.
func (d *DatapathData) WriteBaseline(path string) error {
	b := datapathBaseline{
		Note:   "hare-bench -datapath baseline; regenerate with: hare-bench -datapath -scale <scale> -cores <cores> -baseline <path>; compare with: hare-bench -datapath -check <path>",
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

// CheckDatapathBaseline re-runs the sweep a committed baseline records, at
// the baseline's own scale and cores, and compares every count per point —
// ops, lines written back and invalidated in each mode, lines skipped, bytes
// in each mode — exactly: the error names every point that differs. All of
// them follow from the op stream and repeat under any GOMAXPROCS, so a change
// that moves one line through the memory system fails it. Virtual times
// depend on host scheduling; the table prints them side by side and nothing
// gates them.
func CheckDatapathBaseline(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var want datapathBaseline
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, _, err := DatapathFigure(want.Scale, want.Cores, nil, nil)
	if err != nil {
		return nil, err
	}
	verdicts, err := compareExact(path, data.Points, want.Points, func(got, w DatapathPoint) DatapathPoint {
		got.OnSeconds, got.OffSeconds = w.OnSeconds, w.OffSeconds
		return got
	}, func(p DatapathPoint) string { return fmt.Sprintf("%s@%d", p.Benchmark, p.Servers) })
	if verdicts == nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Data-path sweep against %s (scale %g, %d cores)", path, want.Scale, want.Cores),
		Columns: []string{"benchmark", "servers", "time on (ms)", "committed", "time off (ms)", "committed",
			"wb lines on", "wb lines off", "inv lines on", "inv lines off", "skipped", "bytes on", "bytes off", "exact columns"},
		Note: "exact columns: Ops, OnWbLines, OffWbLines, OnInvLines, OffInvLines, SkipLines, OnBytes, OffBytes; times (OnSeconds, OffSeconds) are printed, not gated.",
	}
	for i, got := range data.Points {
		w := want.Points[i]
		t.AddRow(got.Benchmark, fmt.Sprint(got.Servers),
			f2(got.OnSeconds*1000), f2(w.OnSeconds*1000), f2(got.OffSeconds*1000), f2(w.OffSeconds*1000),
			fmt.Sprint(got.OnWbLines), fmt.Sprint(got.OffWbLines), fmt.Sprint(got.OnInvLines), fmt.Sprint(got.OffInvLines),
			fmt.Sprint(got.SkipLines), fmt.Sprint(got.OnBytes), fmt.Sprint(got.OffBytes), verdicts[i])
	}
	return t, err
}
