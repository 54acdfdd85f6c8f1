package workload

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestParallelSingleCoreGateCost: with GOMAXPROCS=1 the parallel engine's
// gated consumers must sleep on their condition variables until the gate
// signals them, not spin — so a single-core parallel smallfile run costs
// within 10% of the serialized engine, plus a small absolute allowance for
// scheduler noise on short runs. Under a spin/sleep backoff it ran orders of
// magnitude slower.
func TestParallelSingleCoreGateCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing regression test")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	run := func(parallel bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			sys, env := parallelSystem(t, parallel, trace.Config{})
			w := SmallFile{PerWorker: 60}
			if err := w.Setup(env); err != nil {
				t.Fatalf("setup (parallel=%v): %v", parallel, err)
			}
			start := time.Now()
			within(t, sys, 2*time.Minute, func() error {
				_, err := w.Run(env)
				return err
			})
			if d := time.Since(start); d < best {
				best = d
			}
			sys.Stop()
		}
		return best
	}

	ser := run(false)
	par := run(true)
	limit := ser + ser/10 + 25*time.Millisecond
	t.Logf("single-core smallfile: serialized=%v parallel=%v limit=%v", ser, par, limit)
	if par > limit {
		t.Fatalf("single-core parallel run took %v, serialized %v: gate wait is burning the core (limit %v)", par, ser, limit)
	}
}

// TestParallelTwoCoreFanoutCost keeps the thundering herd out of the gate: on
// two cores, a 64-server / 64-worker stream over private subtrees — every
// server's consumer asleep on the gate, every lane bumping — must cost no
// more than twice the serialized engine's host time (best of three each).
// With every frontier raise broadcasting to every gated inbox and every
// woken consumer rescanning every lane, it cost nine to eleven times; with
// the gate owning the floor and waking by threshold, 1.4 to 1.9; with the
// cost model's lookahead in the await bound and repliers publishing the real
// arrival (DESIGN.md §13), 1.0 to 1.3.
func TestParallelTwoCoreFanoutCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing regression test")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	run := func(parallel bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			sys, env := parallelSystemN(t, 64, parallel, trace.Config{})
			env.Scale = 1
			w := ScaleSweep{FilesPerWorker: 200}
			if err := w.Setup(env); err != nil {
				t.Fatalf("setup (parallel=%v): %v", parallel, err)
			}
			start := time.Now()
			within(t, sys, 2*time.Minute, func() error {
				_, err := w.Run(env)
				return err
			})
			if d := time.Since(start); d < best {
				best = d
			}
			sys.Stop()
		}
		return best
	}

	ser := run(false)
	par := run(true)
	limit := 2*ser + 25*time.Millisecond
	t.Logf("two-core 64-server fan-out: serialized=%v parallel=%v limit=%v", ser, par, limit)
	if par > limit {
		t.Fatalf("two-core parallel run took %v, serialized %v: the gate is waking or scanning more than it must (limit %v)", par, ser, limit)
	}
}

// TestParallelSharedDirectoryReport measures, and asserts nothing: the two
// gates above time private subtrees, where no server is shared, and a verdict
// on the engines needs the contended case beside them. Eight workers churn
// small files in one distributed directory on eight servers, on two cores,
// under each engine; the log gives host time per call (best of three) and
// the virtual run time of every run. The serialized engine serves a server's
// requests in host order (ROADMAP, determinism), so here the engines differ
// in virtual time as well as in cost, and the serialized figure moves from
// run to run.
func TestParallelSharedDirectoryReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing report")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	for _, parallel := range []bool{false, true} {
		best := time.Duration(1<<63 - 1)
		var calls int
		var virt []string
		for i := 0; i < 3; i++ {
			sys, env := parallelSystemN(t, 8, parallel, trace.Config{})
			w := SmallFile{PerWorker: 1500, WriteBytes: 64}
			if err := w.Setup(env); err != nil {
				t.Fatalf("setup (parallel=%v): %v", parallel, err)
			}
			from, start := sys.Procs().MaxEndTime(), time.Now()
			n, err := w.Run(env)
			if err != nil {
				t.Fatalf("run (parallel=%v): %v", parallel, err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			calls = n
			virt = append(virt, fmt.Sprintf("%.3f", 1e3*sys.Seconds(sys.Procs().MaxEndTime()-from)))
			sys.Stop()
		}
		t.Logf("shared directory, 8 servers, 2 cores, parallel=%v: %.2f µs of host time per call, virtual run time %v ms",
			parallel, float64(best.Microseconds())/float64(calls), virt)
	}
}
