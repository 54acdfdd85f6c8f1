package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The economy sweep reports what the pipeline and the data path save in
// counters only: they follow from the op stream, so they are exact at every
// server count. Virtual time is not, and nothing here compares it; the
// on-versus-off timing claims these tests once made went with the off modes.

// TestPipelineFigureMeetsAcceptance pins the async RPC pipeline's message
// economy on the small-file workload, unwritten and written, at several
// server counts.
func TestPipelineFigureMeetsAcceptance(t *testing.T) {
	const perWorker, workers = 20, 8
	servers := []int{1, 4, 8}
	ws := []workload.Workload{workload.SmallFile{PerWorker: perWorker}, workload.SmallFile{PerWorker: perWorker, WriteBytes: 64}}
	data, tbl, err := EconomyFigure(testScale, workers, servers, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != len(ws)*len(servers) || len(tbl.Rows) != len(data.Points) {
		t.Fatalf("sweep produced %d points, %d rows", len(data.Points), len(tbl.Rows))
	}
	// Per file the client sends the create and one batch: RM_MAP and
	// UNLINK_INODE led by the close of a file nothing was written to, which
	// waited for the unlink's message (DESIGN.md §7, "A clean close rides").
	// Sent one by one, the same four requests were four messages. Written,
	// the file's first block rides with its create from a worker's second
	// file on: the first one shows that the worker writes what it creates
	// and pays the EXTEND as a message of its own, and its dirty close goes
	// alone. Each worker adds two set-up requests.
	const files = workers * perWorker
	want := map[string][2]uint64{ // request messages, batched sub-ops
		"smallfile":       {2*files + 2*workers, 3 * files},
		"smallfile+write": {3*files + workers + 2*workers, 4*files - 2*workers},
	}
	for _, p := range data.Points {
		w := want[p.Benchmark]
		if p.Msgs != w[0] || p.BatchedOps != w[1] {
			t.Errorf("%s@%d servers: %d request messages, %d batched sub-ops; want %d, %d",
				p.Benchmark, p.Servers, p.Msgs, p.BatchedOps, w[0], w[1])
		}
	}
}

// TestDatapathSweepAcceptance pins the zero-waste data path's line economy
// on the bigfile workload: it rereads what it wrote, so every reopen finds
// its version unchanged and keeps its cached lines, and what moves does not
// depend on the server count.
func TestDatapathSweepAcceptance(t *testing.T) {
	data, table, err := EconomyFigure(testScale, 4, []int{1, 2, 4},
		[]workload.Workload{workload.BigFile{FileKiB: 64, Rounds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if table.Render() == "" {
		t.Fatal("empty table")
	}
	if len(data.Points) != 3 {
		t.Fatalf("expected 3 sweep points, got %d", len(data.Points))
	}
	first := data.Points[0]
	for _, p := range data.Points {
		if p.SkipLines == 0 || p.InvLines != 0 || p.WbLines == 0 {
			t.Errorf("servers=%d: %d lines kept, %d invalidated, %d written back; want some kept, none invalidated",
				p.Servers, p.SkipLines, p.InvLines, p.WbLines)
		}
		if p.Msgs != first.Msgs || p.Bytes != first.Bytes || p.WbLines != first.WbLines || p.SkipLines != first.SkipLines {
			t.Errorf("bigfile moved %+v at %d servers and %+v at %d", p, p.Servers, first, first.Servers)
		}
	}
}

// TestPipelineBaselineRoundTrip: the baseline file the sweep writes reads
// back to the same points, scale and cores.
func TestPipelineBaselineRoundTrip(t *testing.T) {
	data, _, err := EconomyFigure(0.01, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "economy.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back economyBaseline
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cores != 2 || back.Scale != 0.01 || !reflect.DeepEqual(back.Points, data.Points) {
		t.Fatalf("baseline round trip mismatch: %+v", back)
	}
}

// TestDatapathBaselineWriter: the committed file names its columns as the
// point's fields, line counters included, and its note says how to
// regenerate and check it.
func TestDatapathBaselineWriter(t *testing.T) {
	data := &EconomyData{
		Cores: 4, Scale: 0.05,
		Points: []EconomyPoint{{Benchmark: "bigfile", Servers: 2, Ops: 10, Seconds: 0.1,
			Msgs: 3, Bytes: 700, WbLines: 5, InvLines: 2, SkipLines: 40}},
	}
	path := filepath.Join(t.TempDir(), "datapath.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Note   string                       `json:"note"`
		Points []map[string]json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(back.Note, "-economy -check") || !strings.Contains(back.Note, "-economy -scale") {
		t.Errorf("note %q does not say how to check and regenerate the file", back.Note)
	}
	if len(back.Points) != 1 {
		t.Fatalf("%d points written, want 1", len(back.Points))
	}
	for col, want := range map[string]string{"Ops": "10", "Msgs": "3", "Bytes": "700", "BatchedOps": "0",
		"WbLines": "5", "InvLines": "2", "SkipLines": "40"} {
		if got := string(back.Points[0][col]); got != want {
			t.Errorf("column %s = %q, want %q", col, got, want)
		}
	}
}

// checkEdited writes a fresh sweep as a baseline, checks that it checks
// clean, applies edit to its points, and returns what the check of the
// edited file says.
func checkEdited(t *testing.T, edit func(p *EconomyPoint)) (*Table, error) {
	t.Helper()
	data, _, err := EconomyFigure(0.01, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "economy.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	if tbl, err := CheckEconomyBaseline(path); err != nil || len(tbl.Rows) != len(data.Points) {
		t.Fatalf("check of a fresh baseline: %v", err)
	}
	for i := range data.Points {
		edit(&data.Points[i])
	}
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	return CheckEconomyBaseline(path)
}

// TestCheckBaseline: a baseline the sweep has just written checks clean; one
// whose message column was edited does not, and the error names the point.
// Times are not gated.
func TestCheckBaseline(t *testing.T) {
	tbl, err := checkEdited(t, func(p *EconomyPoint) {
		switch fmt.Sprintf("%s@%d", p.Benchmark, p.Servers) {
		case "smallfile@1":
			p.Seconds *= 3
		case "smallfile@2":
			p.Msgs++
		}
	})
	if err == nil || tbl == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "smallfile@2") {
		t.Fatalf("check of an edited baseline: %v", err)
	}
}

// TestCheckDatapathBaseline: the check gates the line columns too — all but
// smallfile+write's invalidated lines, which follow host order.
func TestCheckDatapathBaseline(t *testing.T) {
	tbl, err := checkEdited(t, func(p *EconomyPoint) {
		switch fmt.Sprintf("%s@%d", p.Benchmark, p.Servers) {
		case "smallfile+write@1":
			p.InvLines += 64
		case "bigfile@2":
			p.SkipLines++
		}
	})
	if err == nil || tbl == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "bigfile@2") {
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
