package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestPipelineFigureMeetsAcceptance(t *testing.T) {
	// The acceptance criterion for the async RPC pipeline: on the
	// small-file create/unlink workload at >= 4 servers, pipelining must
	// cut client request messages by at least 20% and lower the virtual
	// runtime.
	//
	// Virtual-time audit: the message economy is exact — it follows from the
	// op stream alone — and is asserted exactly. Virtual time is not:
	// queueing delay depends on which goroutine reaches a server's inbox
	// first, and on a 600-op run the runtime of either mode wanders by a
	// factor of two to four (benchmark/README.md, "Noise"), which made an
	// on < off comparison of single runs fail about one time in six. At
	// 2400 ops a run stays within about 15% of its median and the two modes
	// are about 20% apart, so the comparison is made there, on the median
	// of five sweeps.
	const perWorker, workers, sweeps = 100, 8, 5
	ws := []workload.Workload{workload.SmallFile{PerWorker: perWorker}, workload.SmallFile{PerWorker: perWorker, WriteBytes: 64}}
	servers := []int{4, 8}
	on := make([][]float64, len(servers))
	off := make([][]float64, len(servers))
	for i := 0; i < sweeps; i++ {
		data, tbl, err := PipelineFigure(testScale, workers, servers, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(data.Points) != 2*len(servers) || len(tbl.Rows) != 2*len(servers) {
			t.Fatalf("sweep produced %d points, %d rows", len(data.Points), len(tbl.Rows))
		}
		// Per file the unpipelined client sends create, close, RM_MAP and
		// UNLINK_INODE; pipelined, the last three travel as sub-ops of one
		// batch — the close of a file nothing was written to waits for the
		// unlink's message and leads it (DESIGN.md §7, "A clean close rides").
		// Each worker adds two set-up requests in both modes.
		const files = workers * perWorker
		for _, p := range data.Points[len(servers):] {
			// Written, the unpipelined client sends an EXTEND besides; pipelined
			// it is a sub-op of the create's message — from a worker's second
			// file on: the first one shows that the worker writes what it
			// creates and pays the EXTEND as a message of its own (DESIGN.md §7).
			const firstFiles = workers
			wantOff, wantOn, wantBatched := uint64(5*files+2*workers), uint64(3*files+firstFiles+2*workers), uint64(4*files-2*firstFiles)
			if p.Benchmark != "smallfile+write" || p.OffMsgs != wantOff || p.OnMsgs != wantOn || p.BatchedOps != wantBatched {
				t.Errorf("%s@%d servers: request messages off/on %d/%d, batched sub-ops %d; want smallfile+write %d/%d, %d",
					p.Benchmark, p.Servers, p.OffMsgs, p.OnMsgs, p.BatchedOps, wantOff, wantOn, wantBatched)
			}
		}
		for j, p := range data.Points[:len(servers)] {
			if p.OffMsgs != 4*files+2*workers || p.OnMsgs != 2*files+2*workers || p.BatchedOps != 3*files {
				t.Errorf("%s@%d servers: request messages off/on %d/%d, batched sub-ops %d; want %d/%d, %d",
					p.Benchmark, p.Servers, p.OffMsgs, p.OnMsgs, p.BatchedOps,
					4*files+2*workers, 2*files+2*workers, 3*files)
			}
			if p.MsgReduction() < 0.20 {
				t.Errorf("%s@%d servers: message reduction %.0f%%, want >= 20%%",
					p.Benchmark, p.Servers, p.MsgReduction()*100)
			}
			on[j] = append(on[j], p.OnSeconds)
			off[j] = append(off[j], p.OffSeconds)
		}
	}
	for j, n := range servers {
		sort.Float64s(on[j])
		sort.Float64s(off[j])
		if mOn, mOff := on[j][sweeps/2], off[j][sweeps/2]; mOn >= mOff {
			t.Errorf("smallfile@%d servers: pipelining on (median %.4fs of %v) not faster than off (median %.4fs of %v)",
				n, mOn, on[j], mOff, off[j])
		}
	}
}

func TestPipelineBaselineRoundTrip(t *testing.T) {
	data := &PipelineData{
		Cores: 8,
		Scale: 0.1,
		Points: []PipelinePoint{{
			Benchmark: "smallfile", Servers: 4, Ops: 100,
			OnSeconds: 0.5, OffSeconds: 0.7, OnMsgs: 75, OffMsgs: 100,
		}},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cores != 8 || len(back.Points) != 1 || back.Points[0].OffMsgs != 100 {
		t.Fatalf("baseline round trip mismatch: %+v", back)
	}
	if got := back.Points[0].MsgReduction(); got != 0.25 {
		t.Fatalf("MsgReduction = %f, want 0.25", got)
	}
	if got := back.Points[0].Speedup(); got < 1.39 || got > 1.41 {
		t.Fatalf("Speedup = %f, want 1.4", got)
	}
}

// TestCheckBaseline: a baseline the sweep has just written checks clean; one
// whose exact column was edited does not, and the error names the point.
func TestCheckBaseline(t *testing.T) {
	data, _, err := PipelineFigure(0.01, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	if tbl, err := CheckBaseline(path); err != nil || len(tbl.Rows) != len(data.Points) {
		t.Fatalf("check of a fresh baseline: %v", err)
	}
	// Times are not gated, messages are.
	data.Points[0].OnSeconds *= 3
	data.Points[1].OnMsgs++
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	tbl, err := CheckBaseline(path)
	if err == nil || tbl == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "smallfile@2") {
		t.Fatalf("check of an edited baseline: %v", err)
	}
}

func TestResultCarriesMessageEconomy(t *testing.T) {
	r, err := RunWorkload(HareFactory(DefaultHare(2)), workload.Creates{PerWorker: 10}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Econ == nil {
		t.Fatal("hare backend result has no economy counters")
	}
	if r.Econ.Msgs == 0 || r.Econ.Bytes == 0 || r.Econ.ClientRPCs == 0 {
		t.Fatalf("degenerate economy counters: %+v", *r.Econ)
	}
	if r.Econ.ClientRPCs >= r.Econ.Msgs {
		t.Fatal("request messages should be a strict subset of all messages")
	}
	base, err := RunWorkload(RamfsFactory(2), workload.Creates{PerWorker: 10}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if base.Econ != nil {
		t.Fatal("ramfs baseline has no message layer; Econ must be nil")
	}
}
