package bench

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
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
	points, err := economyPoints(testScale, workers, servers, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ws)*len(servers) {
		t.Fatalf("sweep produced %d points", len(points))
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
	for _, p := range points {
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
	points, err := economyPoints(testScale, 4, []int{1, 2, 4},
		[]workload.Workload{workload.BigFile{FileKiB: 64, Rounds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("expected 3 sweep points, got %d", len(points))
	}
	first := points[0]
	for _, p := range points {
		if p.SkipLines == 0 || p.InvLines != 0 || p.WbLines == 0 {
			t.Errorf("servers=%d: %d lines kept, %d invalidated, %d written back; want some kept, none invalidated",
				p.Servers, p.SkipLines, p.InvLines, p.WbLines)
		}
		if p.Msgs != first.Msgs || p.Bytes != first.Bytes || p.WbLines != first.WbLines || p.SkipLines != first.SkipLines {
			t.Errorf("bigfile moved %+v at %d servers and %+v at %d", p, p.Servers, first, first.Servers)
		}
	}
}

// economyFile writes the economy sweep at a tiny size to a fresh file and
// returns the file's path and the sweep's table.
func economyFile(t *testing.T) (string, *Table) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_economy.json")
	tables, err := Sweep("economy", Params{Scale: 0.01, Cores: 2}, path)
	if err != nil {
		t.Fatal(err)
	}
	return path, tables[0]
}

// TestPipelineBaselineRoundTrip: the file the economy sweep writes reads
// back to the same points, scale and cores.
func TestPipelineBaselineRoundTrip(t *testing.T) {
	path, tbl := economyFile(t)
	_, l := readLedger[EconomyPoint](t, path)
	if l.Sweep != "economy" || l.Params != (Params{Scale: 0.01, Cores: 2}) || len(l.Points) != len(tbl.Rows) {
		t.Fatalf("baseline round trip mismatch: %+v", l)
	}
	for i, p := range l.Points {
		if got := economySweep.row(p); !slices.Equal(got, tbl.Rows[i]) {
			t.Errorf("point %d reads back as %q, was measured as %q", i, got, tbl.Rows[i])
		}
	}
}

// TestDatapathBaselineWriter: the file names its columns as the point's
// fields, line counters included, and its note says how to regenerate and
// check it.
func TestDatapathBaselineWriter(t *testing.T) {
	path, _ := economyFile(t)
	raw, l := readLedger[EconomyPoint](t, path)
	var back struct {
		Note   string                       `json:"note"`
		Points []map[string]json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(back.Note, "hare-bench -check BENCH_economy.json") || !strings.Contains(back.Note, "hare-bench -sweep economy -scale") {
		t.Errorf("note %q does not say how to check and regenerate the file", back.Note)
	}
	if len(back.Points) == 0 || len(back.Points) != len(l.Points) {
		t.Fatalf("%d points written, %d read", len(back.Points), len(l.Points))
	}
	kept := false
	for i, p := range l.Points {
		kept = kept || p.SkipLines > 0
		for col, want := range map[string]uint64{"Ops": uint64(p.Ops), "Msgs": p.Msgs, "Bytes": p.Bytes, "BatchedOps": p.BatchedOps,
			"WbLines": p.WbLines, "InvLines": p.InvLines, "SkipLines": p.SkipLines} {
			if got := string(back.Points[i][col]); got != fmt.Sprint(want) {
				t.Errorf("%s: column %s = %q, want %d", p.key(), col, got, want)
			}
		}
	}
	if !kept {
		t.Error("no point records a kept line")
	}
}

// checkEdited writes a fresh economy sweep to a file, checks that it checks
// clean, applies edit to its points, and returns what the check of the
// edited file says.
func checkEdited(t *testing.T, edit func(p *EconomyPoint)) error {
	t.Helper()
	path, tbl := economyFile(t)
	if tables, err := Check(path); err != nil || len(tables[0].Rows) != len(tbl.Rows) {
		t.Fatalf("check of a fresh baseline: %v", err)
	}
	rewrite(func(l *ledger[EconomyPoint]) {
		for i := range l.Points {
			edit(&l.Points[i])
		}
	})(t, path)
	_, err := Check(path)
	return err
}

// TestCheckBaseline: a file the sweep has just written checks clean; one
// whose message column was edited does not, and the error names that point
// alone. Times are not gated.
func TestCheckBaseline(t *testing.T) {
	err := checkEdited(t, func(p *EconomyPoint) {
		switch p.key() {
		case "smallfile@1":
			p.Seconds *= 3
		case "smallfile@2":
			p.Msgs++
		}
	})
	if err == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "\nsmallfile@2: Msgs ") {
		t.Fatalf("check of an edited baseline: %v", err)
	}
}

// TestCheckDatapathBaseline: the check gates the line columns too — all but
// smallfile+write's invalidated lines, which follow host order.
func TestCheckDatapathBaseline(t *testing.T) {
	err := checkEdited(t, func(p *EconomyPoint) {
		switch p.key() {
		case "smallfile+write@1":
			p.InvLines += 64
		case "bigfile@2":
			p.SkipLines++
		}
	})
	if err == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "\nbigfile@2: SkipLines ") {
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
