package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// fileCase is one sweep at a tiny size, and two edits of the file it
// writes: loose touches only ungated columns, so the file still checks
// clean; exact moves one gated column of the point named want, so the check
// fails and names that point alone.
type fileCase struct {
	name         string
	p            Params
	loose, exact func(*testing.T, string)
	want         string
	// notes must appear in the table note of the loosely edited file's check.
	notes []string
	// roundTrip reads the file back as the sweep's own points.
	roundTrip func(*testing.T, string) int
}

// sweepFile builds a fileCase for a sweep whose points are P.
func sweepFile[P point[P]](name string, p Params, loose, exact func(*ledger[P]), want string, notes ...string) fileCase {
	return fileCase{name: name, p: p, loose: rewrite(loose), exact: rewrite(exact), want: want, notes: notes,
		roundTrip: func(t *testing.T, path string) int {
			raw, l := readLedger[P](t, path)
			if l.Sweep != name {
				t.Errorf("file names sweep %q, want %q", l.Sweep, name)
			}
			again, err := json.MarshalIndent(&l, "", "  ")
			if err != nil || !bytes.Equal(append(again, '\n'), raw) {
				t.Errorf("file does not round-trip through its points: %v", err)
			}
			return len(l.Points)
		}}
}

func readLedger[P any](t *testing.T, path string) ([]byte, ledger[P]) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger[P]
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	return raw, l
}

// rewrite turns an edit of a file's contents into an edit of the file.
func rewrite[P any](edit func(*ledger[P])) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		t.Helper()
		_, l := readLedger[P](t, path)
		edit(&l)
		buf, err := json.MarshalIndent(&l, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// at applies f to the point of l named key.
func at[P point[P]](l *ledger[P], key string, f func(*P)) {
	for i := range l.Points {
		if l.Points[i].key() == key {
			f(&l.Points[i])
		}
	}
}

// TestSweepFiles: for every sweep, the file it writes round-trips and names
// its sweep, parameters and the commands that regenerate and check it; with
// ungated columns edited (times, heap, smallfile+write's invalidated lines,
// a scale rung's allocations raised past what a rung this small varies by)
// it checks clean; with one gated column edited the check fails, and the
// error names that point and no other.
func TestSweepFiles(t *testing.T) {
	cases := []fileCase{
		sweepFile("economy", Params{Scale: 0.01, Cores: 2},
			func(l *ledger[EconomyPoint]) {
				at(l, "smallfile@1", func(p *EconomyPoint) { p.Seconds *= 3 })
				at(l, "smallfile+write@1", func(p *EconomyPoint) { p.InvLines += 64 })
			},
			func(l *ledger[EconomyPoint]) {
				at(l, "smallfile@2", func(p *EconomyPoint) { p.Msgs++ })
				at(l, "bigfile@1", func(p *EconomyPoint) { p.Seconds /= 2 })
			}, "smallfile@2"),
		sweepFile("elastic", Params{Scale: 0.05, Cores: 4},
			func(l *ledger[ElasticPoint]) {
				at(l, "ring@2", func(p *ElasticPoint) { p.PostSeconds *= 2; p.StaticSeconds /= 3 })
			},
			func(l *ledger[ElasticPoint]) { at(l, "modulo@2", func(p *ElasticPoint) { p.StaticImbalance += 0.01 }) },
			"modulo@2"),
		sweepFile("failover", Params{Scale: 0.05, Cores: 4},
			func(l *ledger[FailoverPoint]) {
				at(l, "sync", func(p *FailoverPoint) { p.Seconds *= 2 })
			},
			func(l *ledger[FailoverPoint]) { at(l, "sync", func(p *FailoverPoint) { p.ReplMsgs++ }) },
			"sync"),
		sweepFile("obs", Params{Scale: 0.01, Cores: 2},
			func(l *ledger[ObsPoint]) {
				at(l, "smallfile 1/64", func(p *ObsPoint) { p.Seconds *= 2; p.Overhead = 0.02; p.Spans++; p.P99++ })
			},
			func(l *ledger[ObsPoint]) { at(l, "bigfile full", func(p *ObsPoint) { p.Spans++ }) },
			"bigfile full"),
		sweepFile("durability", Params{Scale: testScale, Cores: 2},
			func(l *ledger[DurabilityPoint]) {
				at(l, "creates wal on", func(p *DurabilityPoint) { p.Seconds *= 2 })
				at(l, "checkpoint + tail", func(p *DurabilityPoint) { p.MaxRecoveryMs *= 2; p.AvgRecoveryMs = 0 })
			},
			func(l *ledger[DurabilityPoint]) { at(l, "log replay only", func(p *DurabilityPoint) { p.LogBytes++ }) },
			"log replay only"),
		// A rung wider than any machine is skipped when the file is made,
		// and again when it is checked; a rung the file's spec names but its
		// points do not record is run and skipped.
		sweepFile("scale", Params{Rungs: "16:800@1,16:800:par@1,16:800@1048576"},
			func(l *ledger[ScalePoint]) {
				l.Rungs += ",8:800@1"
				for i := range l.Points {
					p := &l.Points[i]
					// Rungs this small repeat their allocations per op to
					// within a few percent, not the committed rungs' 0.05 %.
					p.AllocsPerOp *= 1.1
					p.VirtSeconds *= 3
					p.WallSeconds /= 2
					p.HeapBytes /= 2
				}
			},
			func(l *ledger[ScalePoint]) {
				at(l, "16:800:par@1", func(p *ScalePoint) { p.LoadImbalance += 0.5; p.AllocsPerOp *= 1.1 })
				at(l, "16:800@1", func(p *ScalePoint) { p.AllocsPerOp *= 1.1 })
			}, "16:800:par@1",
			"Skipped 16:800@1048576: the machine has", "Skipped 8:800@1: "),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_"+c.name+".json")
			tables, err := Sweep(c.name, c.p, path)
			if err != nil || len(tables) == 0 || len(tables[0].Rows) == 0 {
				t.Fatalf("sweep: %v", err)
			}
			if n := c.roundTrip(t, path); n != len(tables[0].Rows) {
				t.Errorf("%d points written, %d rows printed", n, len(tables[0].Rows))
			}
			_, head := readLedger[struct{}](t, path)
			if head.Params != c.p {
				t.Errorf("file records %+v, ran at %+v", head.Params, c.p)
			}
			for _, cmd := range []string{"hare-bench " + c.p.flags(c.name) + " -baseline BENCH_" + c.name + ".json",
				"hare-bench -check BENCH_" + c.name + ".json"} {
				if !strings.Contains(head.Note, cmd) {
					t.Errorf("note %q does not say %q", head.Note, cmd)
				}
			}
			c.loose(t, path)
			tables, err = Check(path)
			if err != nil {
				t.Fatalf("check after editing ungated columns: %v", err)
			}
			for _, note := range c.notes {
				if !strings.Contains(tables[0].Note, note) {
					t.Errorf("check note %q does not say %q", tables[0].Note, note)
				}
			}

			c.exact(t, path)
			_, err = Check(path)
			if err == nil || !strings.Contains(err.Error(), "1 of ") || !strings.Contains(err.Error(), "\n"+c.want+": ") {
				t.Fatalf("check after editing %s's gated column: %v", c.want, err)
			}
		})
	}
}

// TestSweepBounds: the columns checked against a bound rather than exactly
// fail only past it — a scale rung's allocations per op more than 1 % above
// the committed figure, and the sampled tracing mode's overhead above 3 %.
func TestSweepBounds(t *testing.T) {
	committed := ScalePoint{Rung: "8:800", AllocsPerOp: 2}
	for allocs, pass := range map[float64]bool{1: true, 2.019: true, 2.021: false} {
		got := committed
		got.AllocsPerOp = allocs
		if (got.gated(committed) == committed) != pass {
			t.Errorf("allocs/op %v against a committed %v: pass %v, want %v", allocs, committed.AllocsPerOp, !pass, pass)
		}
	}
	sampled := ObsPoint{Benchmark: "smallfile", Mode: "1/64", Sample: ObsSampleInterval, Overhead: 0.01}
	for overhead, pass := range map[float64]bool{-0.01: true, 0.029: true, 0.031: false} {
		got := sampled
		got.Overhead = overhead
		if (got.gated(sampled) == sampled) != pass {
			t.Errorf("1-in-64 overhead %v: pass %v, want %v", overhead, !pass, pass)
		}
	}
	full := ObsPoint{Benchmark: "smallfile", Mode: "full", Sample: 1, Overhead: 0.01}
	got := full
	got.Overhead = 0.2
	if got.gated(full) != full {
		t.Error("the full tracing mode's overhead is gated")
	}
}

// TestSweepRefusals: a file is made from a whole sweep only — a run that
// -bench restricted would fail its own check — and a sweep refuses options
// it does not take.
func TestSweepRefusals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "economy.json")
	for _, c := range []struct {
		sweep string
		p     Params
		out   string
	}{
		{"economy", Params{Scale: 0.01, Cores: 2, Bench: workload.Creates{}}, path},
		{"failover", Params{Scale: 0.01, Cores: 2, Bench: workload.Creates{}}, ""},
		{"economy", Params{Scale: 0.01, Cores: 2, Rungs: "8"}, ""},
		{"nosuch", Params{}, ""},
	} {
		if _, err := Sweep(c.sweep, c.p, c.out); err == nil {
			t.Errorf("%s at %+v to %q ran", c.sweep, c.p, c.out)
		}
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("a restricted run wrote its file")
	}
	if tables, err := Sweep("economy", Params{Scale: 0.01, Cores: 2, Bench: workload.Creates{}}, ""); err != nil || len(tables[0].Rows) != 2 {
		t.Fatalf("economy restricted to creates: %v", err)
	}
}
