package bench

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseScaleRungs(t *testing.T) {
	got, err := ParseScaleRungs("8, 64:32768:par@2 ,16:4000@1,32:par")
	if err != nil {
		t.Fatal(err)
	}
	want := []ScaleRung{
		{Servers: 8, Files: 8000},
		{Servers: 64, Files: 32768, Parallel: true, Cores: 2},
		{Servers: 16, Files: 4000, Cores: 1},
		{Servers: 32, Files: 32000, Parallel: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for _, bad := range []string{"8@0", "8@x", "x:4", "8:0", "8:4:par@"} {
		if _, err := ParseScaleRungs(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
}

// TestScaleSweepSmoke: a rung per engine on one core, and one wider than any
// machine: the sweep restores GOMAXPROCS, reports what each point ran at,
// fills the gate's ledger for the parallel rung and skips the third.
func TestScaleSweepSmoke(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	data, tables, err := ScaleSweepFigure([]ScaleRung{
		{Servers: 8, Files: 800, Cores: 1},
		{Servers: 8, Files: 800, Cores: 1, Parallel: true},
		{Servers: 8, Files: 800, Cores: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) != procs {
		t.Fatalf("GOMAXPROCS left at %d, was %d", runtime.GOMAXPROCS(0), procs)
	}
	if len(data.Points) != 2 || len(tables) != 2 || !strings.Contains(tables[0].Note, "Skipped 8:800@1048576") {
		t.Fatalf("%d points, %d tables, note %q", len(data.Points), len(tables), tables[0].Note)
	}
	for _, p := range data.Points {
		if p.GOMAXPROCS != 1 || p.Ops == 0 || p.VirtSeconds <= 0 || p.LoadImbalance < 1 {
			t.Fatalf("point %+v", p)
		}
	}
	g := data.Points[1].Gate
	if data.Points[0].Gate != nil || g == nil || g.Locks == 0 || g.Bumps == 0 || g.Locks > 4*uint64(data.Points[1].Ops) {
		t.Fatalf("gate ledgers: serialized %+v, parallel %+v", data.Points[0].Gate, g)
	}
}

// TestCheckScaleBaseline: a baseline the sweep has just written checks clean
// under either engine; a rung the file does not record and one wider than
// the machine are skipped and named; an edited load imbalance fails the
// check and the error names the rung.
func TestCheckScaleBaseline(t *testing.T) {
	rungs := []ScaleRung{{Servers: 16, Files: 800, Cores: 1}, {Servers: 16, Files: 800, Cores: 1, Parallel: true}}
	data, _, err := ScaleSweepFigure(append(rungs, ScaleRung{Servers: 16, Files: 800, Cores: 1 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scale.json")
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	tbl, err := CheckScaleBaseline(path, append(rungs, ScaleRung{Servers: 8, Files: 800, Cores: 1}))
	if err != nil || len(tbl.Rows) != 2 || !strings.Contains(tbl.Note, "Skipped 8:800@1: "+path+" does not record it.") {
		t.Fatalf("check of a fresh baseline: %v, note %q", err, tbl.Note)
	}
	// Times are not gated, the imbalance is.
	data.Points[0].VirtSeconds *= 3
	data.Points[1].LoadImbalance += 0.5
	data.Points = append(data.Points, ScalePoint{Rung: "16:800@1048576"})
	if err := data.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	tbl, err = CheckScaleBaseline(path, []ScaleRung{rungs[0], {Servers: 16, Files: 800, Cores: 1 << 20}, rungs[1]})
	if err == nil || tbl == nil || !strings.Contains(err.Error(), "1 of 2") || !strings.Contains(err.Error(), "16:800:par@1: ops") ||
		!strings.Contains(tbl.Note, "Skipped 16:800@1048576: the machine has") {
		t.Fatalf("check of an edited baseline: %v, note %q", err, tbl.Note)
	}
}
