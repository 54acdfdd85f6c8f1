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
	points, skipped, err := scalePoints([]ScaleRung{
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
	if gt := gateTable(points); len(points) != 2 || len(gt) != 1 || len(gt[0].Rows) != 1 || !strings.HasPrefix(skipped["8:800@1048576"], "the machine has") {
		t.Fatalf("%d points, gate tables %v, skipped %q", len(points), gt, skipped)
	}
	for _, p := range points {
		if p.GOMAXPROCS != 1 || p.Ops == 0 || p.VirtSeconds <= 0 || p.LoadImbalance < 1 {
			t.Fatalf("point %+v", p)
		}
	}
	g := points[1].Gate
	if points[0].Gate != nil || g == nil || g.Locks == 0 || g.Bumps == 0 || g.Locks > 4*uint64(points[1].Ops) {
		t.Fatalf("gate ledgers: serialized %+v, parallel %+v", points[0].Gate, g)
	}
}

// TestCheckScaleBaseline: a file the sweep has just written checks clean
// under either engine; a rung the file does not record and one wider than
// the machine are skipped and named; an edited load imbalance, and
// allocations well above what the file records, fail the check and the
// error names each rung. Times and the heap are not gated.
func TestCheckScaleBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	if _, err := Sweep("scale", Params{Rungs: "16:800@1,16:800:par@1,16:800@1048576"}, path); err != nil {
		t.Fatal(err)
	}
	var measured float64
	rewrite(func(l *ledger[ScalePoint]) {
		measured = l.Points[0].AllocsPerOp
		// Rungs this small repeat their allocations per op to within a few
		// percent (1–2 % under -race), not to the committed rungs' 0.05 %.
		for i := range l.Points {
			l.Points[i].AllocsPerOp *= 1.1
		}
		l.Rungs += ",8:800@1"
	})(t, path)
	tables, err := Check(path)
	if err != nil || len(tables[0].Rows) != 3 || !strings.Contains(tables[0].Note, "Skipped 8:800@1: "+path+" does not record it.") ||
		!strings.Contains(tables[0].Note, "Skipped 16:800@1048576: the machine has") {
		t.Fatalf("check of a fresh baseline: %v, note %q", err, tables[0].Note)
	}
	rewrite(func(l *ledger[ScalePoint]) {
		at(l, "16:800@1", func(p *ScalePoint) {
			p.VirtSeconds *= 3
			p.HeapBytes /= 2
			p.AllocsPerOp = measured / 2
		})
		at(l, "16:800:par@1", func(p *ScalePoint) { p.LoadImbalance += 0.5 })
	})(t, path)
	tables, err = Check(path)
	if err == nil || !strings.Contains(err.Error(), "2 of 2") || !strings.Contains(err.Error(), "\n16:800:par@1: load_imbalance ") ||
		!strings.Contains(err.Error(), "\n16:800@1: allocs_per_op ") {
		t.Fatalf("check of an edited baseline: %v, note %q", err, tables[0].Note)
	}
}
