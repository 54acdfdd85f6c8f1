package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// The economy sweep: the default deployment — async RPC pipeline (DESIGN.md
// §7) and zero-waste data path (DESIGN.md §8) included — runs the
// message-bound and data-movement-bound workloads at several server counts,
// and the table reports what each moved: request messages, wire bytes,
// batched sub-ops, and 64-byte lines written back, invalidated and kept by
// version-matched opens. Every count follows from the op stream, so a
// committed sweep (BENCH_economy.json) gates them exactly.

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

// EconomyData holds the full sweep.
type EconomyData struct {
	Cores  int
	Scale  float64
	Points []EconomyPoint
}

// EconomyFigure runs the sweep. The default workload set is small-file
// churn unwritten and written, creates, sequential writes, and the bigfile
// read/overwrite benchmark; the default server counts are 1, 2, 4 and 8.
func EconomyFigure(scale float64, cores int, serverCounts []int, ws []workload.Workload) (*EconomyData, *Table, error) {
	if cores == 0 {
		cores = 8
	}
	if len(serverCounts) == 0 {
		serverCounts = []int{1, 2, 4, 8}
	}
	if ws == nil {
		ws = []workload.Workload{workload.SmallFile{}, workload.SmallFile{WriteBytes: 64}, workload.Creates{}, workload.Writes{}, workload.BigFile{}}
	}
	data := &EconomyData{Cores: cores, Scale: scale}
	t := &Table{
		Title: fmt.Sprintf("Economy sweep: messages and lines moved per op (%d cores)", cores),
		Columns: []string{"benchmark", "servers", "time (ms)", "msgs/op", "bytes/op", "batched ops",
			"wb lines", "inv lines", "skipped lines"},
		Note: "msgs = client request messages; lines = 64B lines written back, invalidated at open, and kept by version-matched opens.",
	}
	for _, w := range ws {
		for _, nsrv := range serverCounts {
			if nsrv > cores {
				continue
			}
			opts := DefaultHare(cores)
			opts.Servers = nsrv
			r, err := RunWorkload(HareFactory(opts), w, scale)
			if err != nil {
				return nil, nil, err
			}
			p := EconomyPoint{Benchmark: w.Name(), Servers: nsrv, Ops: r.Ops, Seconds: r.Seconds}
			if e := r.Econ; e != nil {
				p.Msgs, p.Bytes, p.BatchedOps = e.ClientRPCs, e.Bytes, e.BatchedOps
				p.WbLines, p.InvLines, p.SkipLines = e.WbLines, e.InvLines, e.SkipLines
			}
			data.Points = append(data.Points, p)
			t.AddRow(p.Benchmark, fmt.Sprint(p.Servers), f2(p.Seconds*1000),
				f2(stats.PerOp(p.Msgs, p.Ops)), f2(stats.PerOp(p.Bytes, p.Ops)), fmt.Sprint(p.BatchedOps),
				fmt.Sprint(p.WbLines), fmt.Sprint(p.InvLines), fmt.Sprint(p.SkipLines))
		}
	}
	return data, t, nil
}

// economyBaseline is the JSON snapshot committed as BENCH_economy.json.
type economyBaseline struct {
	Note   string         `json:"note"`
	Scale  float64        `json:"scale"`
	Cores  int            `json:"cores"`
	Points []EconomyPoint `json:"points"`
}

// WriteBaseline serializes the sweep to path as indented JSON.
func (d *EconomyData) WriteBaseline(path string) error {
	b := economyBaseline{
		Note:   "hare-bench -economy baseline; regenerate with: hare-bench -economy -scale <scale> -cores <cores> -baseline <path>; compare with: hare-bench -economy -check <path>",
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

// CheckEconomyBaseline re-runs the sweep a committed baseline records, at the
// baseline's own scale and cores, and compares every count per point — ops,
// request messages, bytes, batched sub-ops, and lines written back,
// invalidated and skipped — exactly: the error names every point that
// differs. All of them follow from the op stream and repeat under any
// GOMAXPROCS, except smallfile+write's invalidated lines, which are printed
// beside the committed figure and not gated. Virtual times depend on host
// scheduling; the table prints them side by side and nothing gates them.
func CheckEconomyBaseline(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var want economyBaseline
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, _, err := EconomyFigure(want.Scale, want.Cores, nil, nil)
	if err != nil {
		return nil, err
	}
	if len(data.Points) != len(want.Points) {
		return nil, fmt.Errorf("%s records %d points, the sweep has %d", path, len(want.Points), len(data.Points))
	}
	t := &Table{
		Title: fmt.Sprintf("Economy sweep against %s (scale %g, %d cores)", path, want.Scale, want.Cores),
		Columns: []string{"benchmark", "servers", "time (ms)", "committed", "msgs", "bytes", "batched ops",
			"wb lines", "inv lines", "committed", "skipped lines", "exact columns"},
		Note: "exact columns: Ops, Msgs, Bytes, BatchedOps, WbLines, InvLines (but smallfile+write's), SkipLines; times are printed, not gated.",
	}
	var differ []string
	for i, got := range data.Points {
		w := want.Points[i]
		exact := got
		exact.Seconds = w.Seconds
		if got.Benchmark == "smallfile+write" {
			// It unlinks the files it wrote: whether the block a later create
			// gets back is still cached on the creator's core, and so is
			// dropped line by line, depends on which worker freed it and
			// which took it first.
			exact.InvLines = w.InvLines
		}
		verdict := "same"
		if exact != w {
			verdict = "DIFFER"
			differ = append(differ, fmt.Sprintf("%s@%d: got %+v, committed %+v", got.Benchmark, got.Servers, exact, w))
		}
		t.AddRow(got.Benchmark, fmt.Sprint(got.Servers), f2(got.Seconds*1000), f2(w.Seconds*1000),
			fmt.Sprint(got.Msgs), fmt.Sprint(got.Bytes), fmt.Sprint(got.BatchedOps),
			fmt.Sprint(got.WbLines), fmt.Sprint(got.InvLines), fmt.Sprint(w.InvLines), fmt.Sprint(got.SkipLines), verdict)
	}
	if differ != nil {
		return t, fmt.Errorf("%d of %d points differ from %s in an exact column:\n%s",
			len(differ), len(data.Points), path, strings.Join(differ, "\n"))
	}
	return t, nil
}
