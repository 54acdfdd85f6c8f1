package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestDatapathSweepAcceptance pins the PR's acceptance criterion: on the
// bigfile workload, the zero-waste data path must move strictly fewer data
// lines AND finish faster than off-mode at every server count, with
// version-matched opens actually firing.
//
// The line counts are exact; virtual time is not (see
// TestPipelineFigureMeetsAcceptance). With 64 KiB files and two rounds the
// two modes' runtimes overlapped and the comparison failed about one run in
// four; with 1 MiB files and four rounds the slowest on-mode run seen stays
// clear of the fastest off-mode run at every server count.
func TestDatapathSweepAcceptance(t *testing.T) {
	data, table, err := DatapathFigure(0.05, 4, []int{1, 2, 4},
		[]workload.Workload{workload.BigFile{FileKiB: 1024, Rounds: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if table.Render() == "" {
		t.Fatal("empty table")
	}
	if len(data.Points) != 3 {
		t.Fatalf("expected 3 sweep points, got %d", len(data.Points))
	}
	for _, p := range data.Points {
		if p.OnDataLines() >= p.OffDataLines() {
			t.Errorf("servers=%d: on-mode moved %d lines, off-mode %d — not strictly fewer",
				p.Servers, p.OnDataLines(), p.OffDataLines())
		}
		if p.OnSeconds >= p.OffSeconds {
			t.Errorf("servers=%d: on-mode %.4fs not faster than off-mode %.4fs",
				p.Servers, p.OnSeconds, p.OffSeconds)
		}
		if p.SkipLines == 0 {
			t.Errorf("servers=%d: no lines preserved by version-matched opens", p.Servers)
		}
		if p.OnBytes >= p.OffBytes {
			// Extent coding is active in both modes; the on-mode byte win
			// comes from dirty-line flushes not inflating sizes. Not a hard
			// criterion, but a zero-byte delta with skip lines present would
			// indicate the counters are wired wrong.
			t.Logf("servers=%d: on-mode bytes %d >= off-mode %d", p.Servers, p.OnBytes, p.OffBytes)
		}
	}
}

// TestDatapathBaselineWriter round-trips the JSON baseline file.
func TestDatapathBaselineWriter(t *testing.T) {
	data := &DatapathData{
		Cores: 4, Scale: 0.05,
		Points: []DatapathPoint{{Benchmark: "bigfile", Servers: 2, Ops: 10,
			OnSeconds: 0.1, OffSeconds: 0.2, OnWbLines: 5, OffWbLines: 50}},
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
		Points []DatapathPoint `json:"points"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 1 || back.Points[0].OffWbLines != 50 {
		t.Fatalf("baseline round trip mismatch: %+v", back.Points)
	}
	if s := back.Points[0].Speedup(); s != 2 {
		t.Fatalf("speedup = %v, want 2", s)
	}
}

// TestCheckDatapathBaseline: a baseline the sweep has just written checks
// clean; one whose exact column was edited does not, and the error names the
// point.
func TestCheckDatapathBaseline(t *testing.T) {
	data, _, err := DatapathFigure(0.01, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "datapath.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	if tbl, err := CheckDatapathBaseline(path); err != nil || len(tbl.Rows) != len(data.Points) {
		t.Fatalf("check of a fresh baseline: %v", err)
	}
	// Times are not gated, lines are.
	data.Points[0].OffSeconds *= 3
	data.Points[1].OnInvLines++
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	tbl, err := CheckDatapathBaseline(path)
	if err == nil || tbl == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "bigfile@2") {
		t.Fatalf("check of an edited baseline: %v", err)
	}
}
