package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is one benchmark measurement on one backend.
type Result struct {
	Benchmark string
	Backend   string
	Ops       int
	Elapsed   sim.Cycles
	Seconds   float64
	// Throughput is operations per (virtual) second.
	Throughput float64
	// OpMix is the share of each operation class issued during the timed
	// region (used for Figure 5).
	OpMix map[workload.OpClass]float64
	// OpTotal is the total number of POSIX calls observed by the counter.
	OpTotal uint64
	// Econ holds the message-economy counters accumulated during the timed
	// region (messages, bytes, client RPCs, batched sub-ops, queueing
	// delay); nil on backends without a message layer.
	Econ *stats.Economy
	// Imbalance is the max/mean ratio of per-server requests served during
	// the timed region (1.0 = perfectly balanced; 0 on backends without
	// per-server load counters).
	Imbalance float64
	// Lat holds per-op-kind latency quantiles (virtual cycles) for the
	// timed region, keyed by the root span name ("open", "read", ...);
	// nil unless the backend was built with tracing on.
	Lat map[string]stats.Quantiles
	// Spans are the traced spans recorded during the timed region (ring
	// contents, oldest first); nil unless tracing was on. The CLI's
	// -trace flag exports them as Chrome trace_event JSON.
	Spans []trace.Span
}

// RunWorkload builds a fresh backend from the factory, runs the workload's
// setup phase, then measures the timed region in virtual time.
func RunWorkload(f Factory, w workload.Workload, scale float64) (Result, error) {
	b, err := f(w.Placement())
	if err != nil {
		return Result{}, err
	}
	defer b.Close()

	counter := workload.NewOpCounter()
	env := &workload.Env{Procs: b.Procs, Cores: b.Cores, Counter: counter, Scale: scale, Faults: b.Faults, Elastic: b.Elastic}
	if err := w.Setup(env); err != nil {
		return Result{}, fmt.Errorf("bench: %s setup on %s: %w", w.Name(), b.Name, err)
	}
	start := b.Now()
	counter.Reset()
	// Restrict the latency histograms and span ring to the timed region.
	b.Tracer.Reset()
	var econBase stats.Economy
	if b.Econ != nil {
		econBase = b.Econ()
	}
	var loadsBase []uint64
	if b.Loads != nil {
		loadsBase = b.Loads()
	}
	ops, err := w.Run(env)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s run on %s: %w", w.Name(), b.Name, err)
	}
	end := b.Now()
	elapsed := end - start
	if elapsed == 0 {
		elapsed = 1
	}
	secs := b.Seconds(elapsed)
	if ops <= 0 {
		ops = int(counter.Total())
	}
	r := Result{
		Benchmark:  w.Name(),
		Backend:    b.Name,
		Ops:        ops,
		Elapsed:    elapsed,
		Seconds:    secs,
		Throughput: float64(ops) / secs,
		OpMix:      counter.Breakdown(),
		OpTotal:    counter.Total(),
	}
	if b.Econ != nil {
		e := b.Econ().Sub(econBase)
		r.Econ = &e
	}
	if b.Loads != nil {
		// The fleet may have grown mid-run; servers beyond the base
		// snapshot started from zero.
		loads := b.Loads()
		delta := make([]uint64, len(loads))
		for i, l := range loads {
			if i < len(loadsBase) {
				l -= loadsBase[i]
			}
			delta[i] = l
		}
		r.Imbalance = stats.Imbalance(delta)
	}
	if b.Tracer != nil {
		r.Lat = b.Tracer.OpQuantiles()
		r.Spans = b.Tracer.Spans()
	}
	return r, nil
}

// Speedup is a convenience: the ratio of two throughputs (or equivalently
// inverse runtimes for the same amount of work).
func Speedup(base, other Result) float64 {
	if base.Throughput == 0 {
		return 0
	}
	return other.Throughput / base.Throughput
}
