package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// contract is what the benchmark reads of BENCHMARK.json: the workloads, and
// each metric's unit, direction and (end to end) regression bound.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(buf, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// loadResults reads one result file, or every result-*.json of a directory,
// keyed by workload.
func loadResults(path string) (map[string]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]*result)
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = &r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result", path)
	}
	return out, nil
}

// compareRuns compares run b against run a, workload by workload: every
// exact count must be equal, and no end-to-end median may be worse than a's
// by more than the metric's bound in BENCHMARK.json. A metric whose spread
// within either run is wider than its bound is unresolved, which is a
// failure too, not a pass.
func compareRuns(w io.Writer, a, b string) error {
	con, err := loadContract("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("reading the bounds (run from the repository root): %w", err)
	}
	ra, err := loadResults(a)
	if err != nil {
		return err
	}
	rb, err := loadResults(b)
	if err != nil {
		return err
	}
	bad, compared := 0, 0
	for _, info := range workloadList {
		x, y := ra[info.name], rb[info.name]
		if x == nil || y == nil {
			continue
		}
		compared++
		fmt.Fprintf(w, "%s (seed %d vs %d, %d vs %d repetitions)\n", info.name, x.Seed, y.Seed, x.Reps, y.Reps)
		if y.Failed > 0 || x.Failed > 0 {
			fmt.Fprintf(w, "  BREACH  failed calls or checks: %d vs %d\n", x.Failed, y.Failed)
			bad++
		}
		if x.Seed == y.Seed && len(x.Repetitions) > 0 && len(y.Repetitions) > 0 {
			// The counts behind the exact metrics, from the first measured
			// repetition of each run: results without a traced pass have them too.
			xr, yr := x.Repetitions[0], y.Repetitions[0]
			if xr.Calls != yr.Calls {
				fmt.Fprintf(w, "  BREACH  calls differ: %d vs %d\n", xr.Calls, yr.Calls)
				bad++
			}
			for _, c := range counterMetrics {
				if va, vb := c.counter(xr), c.counter(yr); exactMetric[c.name] && va != vb {
					fmt.Fprintf(w, "  BREACH  %-32s exact count differs: %d vs %d\n", c.name, va, vb)
					bad++
				}
			}
		}
		for _, m := range con.EndToEnd {
			sa, sb := x.EndToEnd[m.Name], y.EndToEnd[m.Name]
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch spread := max(sa.spread(), sb.spread()); {
			case spread > m.Bound:
				verdict = fmt.Sprintf("UNRESOLVED (spread %.1f%% > bound)", 100*spread)
				bad++
			case worse > m.Bound:
				verdict = "BREACH"
				bad++
			}
			fmt.Fprintf(w, "  %-18s %12.6g -> %12.6g %-7s %+6.1f%% worse, bound %4.1f%%  %s\n",
				m.Name, sa.Median, sb.Median, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s share no workload", a, b)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics breached a bound or are unresolved", bad)
	}
	fmt.Fprintln(w, "the two runs agree")
	return nil
}

// runAll runs every workload in its own process — so that peak_rss_mb is one
// workload's — and returns the directory that holds the results.
func runAll(o options) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := o.out
	if dir == "" {
		if dir, err = os.MkdirTemp("", "hare-benchmark-"); err != nil {
			return "", err
		}
	}
	traced := "0"
	if o.traced {
		traced = "1"
	}
	for _, info := range workloadList {
		cmd := exec.Command(self, "-workload", info.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-reps", strconv.Itoa(o.reps),
			"-trace", traced, "-out", dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return dir, fmt.Errorf("%s: %w", info.name, err)
		}
	}
	fmt.Fprintln(os.Stderr, "results in", dir)
	return dir, nil
}

// calibrateRuns makes three full runs and prints, per workload and
// end-to-end metric, the three medians' minimum, median and maximum, their
// relative spread, and the widest spread within one run. The bounds in
// BENCHMARK.json and the table in README.md come from its output.
func calibrateRuns(o options) error {
	base := o.out
	var runs []map[string]*result
	for i := 0; i < 3; i++ {
		if base != "" {
			o.out = filepath.Join(base, fmt.Sprintf("run-%d", i))
		}
		dir, err := runAll(o)
		if err != nil {
			return err
		}
		res, err := loadResults(dir)
		if err != nil {
			return err
		}
		runs = append(runs, res)
	}
	fmt.Printf("%-17s %-16s %12s %12s %12s %9s %11s\n", "workload", "metric", "min", "median", "max", "across", "within run")
	for _, info := range workloadList {
		for _, m := range endToEnd {
			var meds []float64
			within := 0.0
			for _, run := range runs {
				s := run[info.name].EndToEnd[m.name]
				meds = append(meds, s.Median)
				within = max(within, s.spread())
			}
			med := median(meds)
			fmt.Printf("%-17s %-16s %12.6g %12.6g %12.6g %8.2f%% %10.2f%%\n", info.name, m.name,
				slices.Min(meds), med, slices.Max(meds), 100*(slices.Max(meds)-slices.Min(meds))/med, 100*within)
		}
	}
	return nil
}
