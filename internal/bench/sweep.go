package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/workload"
)

// One runner serves the six beyond-paper sweeps (economy, elastic, failover,
// obs, durability, scale). A sweep is a point type, a run function and its
// table; running, writing, reading and checking a committed BENCH_*.json
// file is the code below for all of them. A file names its sweep and the
// parameters it was made at, so `hare-bench -check BENCH_x.json` needs no
// other flag.

// Params are what a sweep runs at; a committed file records them.
type Params struct {
	Scale float64 `json:"scale,omitempty"`
	Cores int     `json:"cores,omitempty"`
	// Rungs is the scale sweep's rung spec (ParseScaleRungs); it takes the
	// place of Scale and Cores there.
	Rungs string `json:"rungs,omitempty"`
	// Bench restricts a sweep over workloads to this one. A restricted run
	// is never written to a file: it would fail its own check.
	Bench workload.Workload `json:"-"`
}

// workloads is Bench alone if it is set, else the sweep's defaults.
func (p Params) workloads(defaults ...workload.Workload) []workload.Workload {
	if p.Bench != nil {
		return []workload.Workload{p.Bench}
	}
	return defaults
}

// flags spells p as hare-bench options.
func (p Params) flags(sweep string) string {
	if p.Rungs != "" {
		return fmt.Sprintf("-sweep %s -rungs %s", sweep, p.Rungs)
	}
	return fmt.Sprintf("-sweep %s -scale %g -cores %d", sweep, p.Scale, p.Cores)
}

// point is one measurement of a sweep.
type point[P any] interface {
	comparable
	// key names the point; a check matches points by it.
	key() string
	// gated returns the point with every column the check does not gate
	// taken from committed, so that == compares the gated ones alone.
	gated(committed P) P
}

// sweep is one sweep's definition.
type sweep[P point[P]] struct {
	name  string
	title string
	// note says what the columns mean and which are gated; the table and the
	// committed file both carry it.
	note    string
	columns []string
	row     func(P) []string
	// beside lists the columns a check prints next to their committed
	// figures: the ungated ones worth reading side by side.
	beside []int
	// run measures the points at p; skipped names, by key, the points it
	// left out and why.
	run func(p Params) (points []P, skipped map[string]string, err error)
	// more renders tables beyond the main one; nil for most sweeps.
	more func([]P) []*Table
	// bench says the sweep runs workloads and takes Params.Bench.
	bench bool
	// rungs, when set, says the sweep takes Params.Rungs in place of Scale
	// and Cores, and spells out the spec it is given.
	rungs func(spec string) string
}

// ledger is a committed file.
type ledger[P any] struct {
	Note  string `json:"note"`
	Sweep string `json:"sweep"`
	Params
	Points []P `json:"points"`
}

// runner is a sweep with its point type hidden.
type runner interface {
	sweep(p Params, out string) ([]*Table, error)
	check(path string, raw []byte) ([]*Table, error)
}

var sweeps = map[string]runner{"economy": economySweep, "elastic": elasticSweep, "failover": failoverSweep,
	"obs": obsSweep, "durability": durabilitySweep, "scale": scaleSweep}

// SweepNames lists the sweeps Sweep runs.
func SweepNames() []string {
	var names []string
	for name := range sweeps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func findSweep(name string) (runner, error) {
	if s, ok := sweeps[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("bench: unknown sweep %q; available: %s", name, strings.Join(SweepNames(), ", "))
}

// Sweep runs the named sweep at p and returns its tables. With out set it
// also writes the sweep to out as a file Check can compare against.
func Sweep(name string, p Params, out string) ([]*Table, error) {
	s, err := findSweep(name)
	if err != nil {
		return nil, err
	}
	return s.sweep(p, out)
}

// Check re-runs the sweep the committed file at path names, at the
// parameters the file records, and compares each measured point with the
// committed point of the same key: the error names every point that differs
// in a gated column, and every committed point that was neither measured
// nor skipped. A measured point the file does not record is skipped and
// named. The tables print the ungated columns beside the committed figures.
func Check(path string) ([]*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Sweep string `json:"sweep"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s, err := findSweep(head.Sweep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s.check(path, raw)
}

func (s *sweep[P]) sweep(p Params, out string) ([]*Table, error) {
	switch {
	case p.Bench != nil && !s.bench:
		return nil, fmt.Errorf("bench: the %s sweep runs no workload -bench can pick", s.name)
	case p.Bench != nil && out != "":
		return nil, fmt.Errorf("bench: a file holds the whole %s sweep; a run restricted to %s would fail its check", s.name, p.Bench.Name())
	case s.rungs != nil:
		p = Params{Rungs: s.rungs(p.Rungs)}
	case p.Rungs != "":
		return nil, fmt.Errorf("bench: the %s sweep takes no rungs", s.name)
	}
	points, skipped, err := s.run(p)
	if err != nil {
		return nil, err
	}
	tables, _ := s.report(p, "", points, nil, skipped)
	if out == "" {
		return tables, nil
	}
	l := ledger[P]{
		Note: fmt.Sprintf("hare-bench -sweep %s baseline; regenerate with: hare-bench %s -baseline %s; compare with: hare-bench -check %[3]s. %s",
			s.name, p.flags(s.name), filepath.Base(out), s.note),
		Sweep:  s.name,
		Params: p,
		Points: points,
	}
	buf, err := json.MarshalIndent(&l, "", "  ")
	if err != nil {
		return nil, err
	}
	return tables, os.WriteFile(out, append(buf, '\n'), 0o644)
}

func (s *sweep[P]) check(path string, raw []byte) ([]*Table, error) {
	var want ledger[P]
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	points, skipped, err := s.run(want.Params)
	if err != nil {
		return nil, err
	}
	tables, differ := s.report(want.Params, path, points, want.Points, skipped)
	if differ != nil {
		return tables, fmt.Errorf("%d of %d points differ from %s in a gated column:\n%s",
			len(differ), len(want.Points), path, strings.Join(differ, "\n"))
	}
	return tables, nil
}

// report renders the sweep's tables. With a committed file's path and
// points it also compares, matching points by key: a "committed" column
// follows each beside column, a "check" column ends each row, and differ
// names every point whose gated columns differ, every committed point
// neither measured nor skipped, and a sweep with nothing to compare.
func (s *sweep[P]) report(p Params, path string, points, want []P, skipped map[string]string) (tables []*Table, differ []string) {
	at := fmt.Sprintf("scale %g, %d cores", p.Scale, p.Cores)
	if p.Rungs != "" {
		at = "rungs " + p.Rungs
	}
	if path != "" {
		at += "; against " + path
	}
	t := &Table{Title: fmt.Sprintf("%s (%s)", s.title, at), Note: s.note}
	committed := map[string]P{}
	for _, c := range want {
		committed[c.key()] = c
	}
	isBeside := func(i int) bool { return path != "" && slices.Contains(s.beside, i) }
	for i, c := range s.columns {
		t.Columns = append(t.Columns, c)
		if isBeside(i) {
			t.Columns = append(t.Columns, "committed")
		}
	}
	if path != "" {
		t.Columns = append(t.Columns, "check")
		skipped = maps.Clone(skipped)
		if skipped == nil {
			skipped = map[string]string{}
		}
	}
	for _, pt := range points {
		k := pt.key()
		c, recorded := committed[k]
		delete(committed, k)
		theirs := s.row(c)
		var row []string
		for i, cell := range s.row(pt) {
			row = append(row, cell)
			if isBeside(i) && !recorded {
				row = append(row, "-")
			} else if isBeside(i) {
				row = append(row, theirs[i])
			}
		}
		switch {
		case path == "":
		case !recorded:
			row = append(row, "unrecorded")
			skipped[k] = path + " does not record it"
		case pt.gated(c) != c:
			row = append(row, "DIFFER")
			differ = append(differ, k+": "+fieldDiff(pt.gated(c), c))
		default:
			row = append(row, "same")
		}
		t.Rows = append(t.Rows, row)
	}
	for _, c := range want {
		if _, missed := committed[c.key()]; missed && skipped[c.key()] == "" {
			differ = append(differ, c.key()+": committed, not measured")
		}
	}
	if path != "" && len(want) == len(committed) {
		differ = append(differ, "no point of the sweep could be compared")
	}
	keys := make([]string, 0, len(skipped))
	for k := range skipped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Note += fmt.Sprintf(" Skipped %s: %s.", k, skipped[k])
	}
	tables = []*Table{t}
	if s.more != nil {
		tables = append(tables, s.more(points)...)
	}
	return tables, differ
}

// fieldDiff names the fields whose JSON differs between got and committed.
func fieldDiff(got, committed any) string {
	var g, c map[string]json.RawMessage
	gb, gerr := json.Marshal(got)
	cb, cerr := json.Marshal(committed)
	if gerr != nil || cerr != nil || json.Unmarshal(gb, &g) != nil || json.Unmarshal(cb, &c) != nil {
		return fmt.Sprintf("got %+v, committed %+v", got, committed)
	}
	var out []string
	for k, v := range g {
		if string(v) != string(c[k]) {
			out = append(out, fmt.Sprintf("%s %s, committed %s", k, v, c[k]))
		}
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}
