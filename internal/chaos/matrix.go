package chaos

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/trace"
)

// MatrixTechniques returns the full 2^5 sweep of the paper's five technique
// toggles (§5.4).
func MatrixTechniques() []core.Techniques {
	out := make([]core.Techniques, 0, 32)
	for bits := 0; bits < 32; bits++ {
		out = append(out, core.Techniques{
			DirectoryDistribution: bits&1 != 0,
			DirectoryBroadcast:    bits&2 != 0,
			DirectAccess:          bits&4 != 0,
			DirectoryCache:        bits&8 != 0,
			CreationAffinity:      bits&16 != 0,
		})
	}
	return out
}

// MatrixConfigs expands a base config into the full technique × placement
// matrix (64 configurations).
func MatrixConfigs(base Config) []Config {
	var out []Config
	for _, pol := range []place.Policy{place.PolicyModulo, place.PolicyRing} {
		for _, tech := range MatrixTechniques() {
			c := base
			c.Techniques = tech
			c.Policy = pol
			out = append(out, c)
		}
	}
	return out
}

// SampleConfigs deterministically picks n configurations spread across the
// matrix: technique combinations stride through the 32-point sweep and
// placement policies alternate.
func SampleConfigs(base Config, n int) []Config {
	techs := MatrixTechniques()
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		c := base
		c.Techniques = techs[(i*7)%len(techs)]
		if i%2 == 1 {
			c.Policy = place.PolicyRing
		} else {
			c.Policy = place.PolicyModulo
		}
		out = append(out, c)
	}
	return out
}

// RunMatrix sweeps seeds × configs, writing one line per run to w (pass
// nil to discard), and returns the repro tuples of the failing runs. Every
// failure line carries the one-line (seed, config) tuple that reproduces it
// via `hare-chaos -repro`.
func RunMatrix(w io.Writer, configs []Config, seeds []uint64) []string {
	return RunMatrixTraced(w, configs, seeds, "")
}

// RunMatrixTraced is RunMatrix with trace capture: when traceDir is
// non-empty every run records a full span trace, and a failing run dumps
// its ring there (Chrome JSON + canonical encoding, see DumpTrace) with the
// path printed in the FAIL line. Passing runs leave no files behind.
func RunMatrixTraced(w io.Writer, configs []Config, seeds []uint64, traceDir string) []string {
	if w == nil {
		w = io.Discard
	}
	var failures []string
	for _, cfg := range configs {
		for _, seed := range seeds {
			run := cfg
			run.Seed = seed
			if traceDir != "" && !run.Trace.Enabled() {
				run.Trace = trace.Config{Sample: 1, Ring: 1 << 18}
			}
			rep, err := Run(run)
			if reportRun(w, run, rep, err, traceDir) {
				failures = append(failures, run.Tuple())
			}
		}
	}
	return failures
}

// reportRun writes one matrix result line and, for a failing traced run,
// dumps its span ring. Returns true when the run failed. The FAIL line
// carries the repro tuple and — when a dump was written — the trace path.
func reportRun(w io.Writer, run Config, rep *Report, err error, traceDir string) bool {
	tuple := run.Tuple()
	if err != nil {
		dump := ""
		if traceDir != "" && rep != nil {
			if p, derr := DumpTrace(traceDir, tuple, rep.Spans); derr == nil {
				dump = " trace=" + p
			} else {
				dump = fmt.Sprintf(" trace-dump-failed=%v", derr)
			}
		}
		fmt.Fprintf(w, "FAIL tuple=%s err=%v%s\n      repro: hare-chaos -repro %s\n", tuple, err, dump, tuple)
		return true
	}
	fmt.Fprintf(w, "PASS tuple=%s ops=%d events=%d delayed=%d dups=%d epoch=%d servers=%d\n",
		tuple, rep.Ops, rep.Events, rep.Faults.Delayed, rep.Faults.Duplicated, rep.Epoch, rep.Servers)
	return false
}
