package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// The pipelining sweep (DESIGN.md §7): every workload runs with the async
// RPC pipeline enabled and disabled at several server counts, and the table
// reports runtime alongside message economy, so the optimization's win is
// quantified in both dimensions — virtual time and messages on the wire.

// DefaultPipelineServerCounts are the server counts swept by PipelineFigure.
var DefaultPipelineServerCounts = []int{1, 2, 4, 8}

// PipelinePoint is one (benchmark, server count) measurement pair.
type PipelinePoint struct {
	Benchmark string
	Servers   int
	Ops       int

	OnSeconds  float64
	OffSeconds float64

	// Request messages sent by client libraries during the timed region.
	OnMsgs  uint64
	OffMsgs uint64

	OnBytes  uint64
	OffBytes uint64

	// Sub-operations that traveled inside batch envelopes (pipelining on).
	BatchedOps uint64

	OnQueueCycles  uint64
	OffQueueCycles uint64
}

// Speedup is the runtime ratio off/on (>1 means pipelining helps).
func (p PipelinePoint) Speedup() float64 {
	if p.OnSeconds == 0 {
		return 0
	}
	return p.OffSeconds / p.OnSeconds
}

// MsgReduction is the fraction of client request messages eliminated by
// pipelining (0.25 = 25% fewer messages).
func (p PipelinePoint) MsgReduction() float64 {
	if p.OffMsgs == 0 {
		return 0
	}
	return 1 - float64(p.OnMsgs)/float64(p.OffMsgs)
}

// PipelineData holds the full sweep.
type PipelineData struct {
	Cores  int
	Scale  float64
	Points []PipelinePoint
}

// PipelineFigure runs the sweep. The default workload set is the
// message-bound set — small-file churn unwritten and written, creates, and
// sequential writes — at the default server counts.
func PipelineFigure(scale float64, cores int, serverCounts []int, ws []workload.Workload) (*PipelineData, *Table, error) {
	if cores == 0 {
		cores = 8
	}
	if len(serverCounts) == 0 {
		serverCounts = DefaultPipelineServerCounts
	}
	if ws == nil {
		ws = []workload.Workload{workload.SmallFile{}, workload.SmallFile{WriteBytes: 64}, workload.Creates{}, workload.Writes{}}
	}
	data := &PipelineData{Cores: cores, Scale: scale}
	t := &Table{
		Title: fmt.Sprintf("Pipelining sweep: async/batched RPC layer on vs off (%d cores)", cores),
		Columns: []string{"benchmark", "servers", "time on (ms)", "time off (ms)", "speedup",
			"msgs/op on", "msgs/op off", "msg cut", "batched ops", "queue cut"},
		Note: "speedup = off/on runtime; msg cut = client request messages eliminated by batching; queue cut = server queueing delay eliminated.",
	}
	for _, w := range ws {
		for _, nsrv := range serverCounts {
			if nsrv > cores {
				continue
			}
			p, err := pipelinePoint(scale, cores, nsrv, w)
			if err != nil {
				return nil, nil, err
			}
			data.Points = append(data.Points, p)
			queueCut := 0.0
			if p.OffQueueCycles > 0 {
				queueCut = 1 - float64(p.OnQueueCycles)/float64(p.OffQueueCycles)
			}
			t.AddRow(p.Benchmark, fmt.Sprintf("%d", p.Servers),
				f2(p.OnSeconds*1000), f2(p.OffSeconds*1000), f2(p.Speedup()),
				f2(stats.PerOp(p.OnMsgs, p.Ops)), f2(stats.PerOp(p.OffMsgs, p.Ops)),
				pct(p.MsgReduction()), fmt.Sprintf("%d", p.BatchedOps), pct(queueCut))
		}
	}
	return data, t, nil
}

// pipelinePoint measures one benchmark at one server count in both modes.
func pipelinePoint(scale float64, cores, nsrv int, w workload.Workload) (PipelinePoint, error) {
	onOpts := DefaultHare(cores)
	onOpts.Servers = nsrv
	offOpts := onOpts
	offOpts.Techniques.RPCPipelining = false

	on, err := RunWorkload(HareFactory(onOpts), w, scale)
	if err != nil {
		return PipelinePoint{}, err
	}
	off, err := RunWorkload(HareFactory(offOpts), w, scale)
	if err != nil {
		return PipelinePoint{}, err
	}
	p := PipelinePoint{
		Benchmark:  w.Name(),
		Servers:    nsrv,
		Ops:        on.Ops,
		OnSeconds:  on.Seconds,
		OffSeconds: off.Seconds,
	}
	if on.Econ != nil {
		p.OnMsgs = on.Econ.ClientRPCs
		p.OnBytes = on.Econ.Bytes
		p.BatchedOps = on.Econ.BatchedOps
		p.OnQueueCycles = on.Econ.QueueCycles
	}
	if off.Econ != nil {
		p.OffMsgs = off.Econ.ClientRPCs
		p.OffBytes = off.Econ.Bytes
		p.OffQueueCycles = off.Econ.QueueCycles
	}
	return p, nil
}

// Baseline is the JSON snapshot committed as BENCH_seed.json so future
// changes have a perf trajectory to compare against. Virtual runtimes are
// deterministic up to goroutine-scheduling tie-breaks in queue draining, so
// treat small drifts as noise and ratios as the signal.
type Baseline struct {
	Note   string          `json:"note"`
	Scale  float64         `json:"scale"`
	Cores  int             `json:"cores"`
	Points []PipelinePoint `json:"points"`
}

// WriteBaseline serializes the sweep to path as indented JSON.
func (d *PipelineData) WriteBaseline(path string) error {
	b := Baseline{
		Note:   "hare-bench -pipeline baseline; regenerate with: hare-bench -pipeline -scale <scale> -cores <cores> -baseline <path>",
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

// CheckBaseline re-runs the sweep a committed baseline records, at the
// baseline's own scale and cores, and compares what the op stream alone
// determines — ops, request messages, bytes and batched sub-ops, per point —
// exactly: the error names every point that differs. Virtual times depend on
// host scheduling; the table prints them side by side and nothing gates them.
func CheckBaseline(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var want Baseline
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, _, err := PipelineFigure(want.Scale, want.Cores, nil, nil)
	if err != nil {
		return nil, err
	}
	verdicts, err := compareExact(path, data.Points, want.Points, func(got, w PipelinePoint) PipelinePoint {
		got.OnSeconds, got.OffSeconds = w.OnSeconds, w.OffSeconds
		got.OnQueueCycles, got.OffQueueCycles = w.OnQueueCycles, w.OffQueueCycles
		return got
	}, func(p PipelinePoint) string { return fmt.Sprintf("%s@%d", p.Benchmark, p.Servers) })
	if verdicts == nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Pipelining sweep against %s (scale %g, %d cores)", path, want.Scale, want.Cores),
		Columns: []string{"benchmark", "servers", "time on (ms)", "committed", "time off (ms)", "committed",
			"msgs on", "msgs off", "bytes on", "bytes off", "batched ops", "exact columns"},
		Note: "exact columns: Ops, OnMsgs, OffMsgs, OnBytes, OffBytes, BatchedOps; times are printed, not gated.",
	}
	for i, got := range data.Points {
		w := want.Points[i]
		t.AddRow(got.Benchmark, fmt.Sprint(got.Servers),
			f2(got.OnSeconds*1000), f2(w.OnSeconds*1000), f2(got.OffSeconds*1000), f2(w.OffSeconds*1000),
			fmt.Sprint(got.OnMsgs), fmt.Sprint(got.OffMsgs), fmt.Sprint(got.OnBytes), fmt.Sprint(got.OffBytes),
			fmt.Sprint(got.BatchedOps), verdicts[i])
	}
	return t, err
}

// compareExact compares a re-run sweep's points with those the baseline at
// path records, one by one in order, after mask has copied into each re-run
// point the committed values of the columns that are not gated. It returns
// each point's verdict, and an error naming every point that differs; with
// a different number of points, no verdicts.
func compareExact[P comparable](path string, got, committed []P, mask func(got, committed P) P, name func(P) string) ([]string, error) {
	if len(got) != len(committed) {
		return nil, fmt.Errorf("%s records %d points, the sweep has %d", path, len(committed), len(got))
	}
	verdicts := make([]string, len(got))
	var differ []string
	for i := range got {
		verdicts[i] = "same"
		if exact := mask(got[i], committed[i]); exact != committed[i] {
			verdicts[i] = "DIFFER"
			differ = append(differ, fmt.Sprintf("%s: got %+v, committed %+v", name(got[i]), exact, committed[i]))
		}
	}
	if differ != nil {
		return verdicts, fmt.Errorf("%d of %d points differ from %s in an exact column:\n%s",
			len(differ), len(got), path, strings.Join(differ, "\n"))
	}
	return verdicts, nil
}
