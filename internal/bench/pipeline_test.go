package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
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
	ws := []workload.Workload{workload.SmallFile{PerWorker: perWorker}}
	servers := []int{4, 8}
	on := make([][]float64, len(servers))
	off := make([][]float64, len(servers))
	for i := 0; i < sweeps; i++ {
		data, tbl, err := PipelineFigure(testScale, workers, servers, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(data.Points) != len(servers) || len(tbl.Rows) != len(servers) {
			t.Fatalf("sweep produced %d points, %d rows", len(data.Points), len(tbl.Rows))
		}
		for j, p := range data.Points {
			// Per file the unpipelined client sends create, write, close and
			// unlink; pipelined, two of the four travel as sub-ops of one
			// batch. Each worker adds two set-up requests in both modes.
			const files = workers * perWorker
			if p.OffMsgs != 4*files+2*workers || p.OnMsgs != 3*files+2*workers || p.BatchedOps != 2*files {
				t.Errorf("%s@%d servers: request messages off/on %d/%d, batched sub-ops %d; want %d/%d, %d",
					p.Benchmark, p.Servers, p.OffMsgs, p.OnMsgs, p.BatchedOps,
					4*files+2*workers, 3*files+2*workers, 2*files)
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
