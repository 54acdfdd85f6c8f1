package bench

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestObsFigureModes smoke-tests the tracing-overhead sweep at a tiny scale:
// every benchmark reports the three modes, the traced modes carry latency
// quantiles and spans, and the untraced mode carries neither.
func TestObsFigureModes(t *testing.T) {
	points, err := obsPoints(0.05, 2, workload.Creates{PerWorker: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"off", "1/64", "full"}
	if len(points) != len(want) {
		t.Fatalf("expected %d modes, got %d", len(want), len(points))
	}
	for i, p := range points {
		if p.Mode != want[i] || p.Benchmark != "creates" {
			t.Fatalf("point %d: got %s %q, want creates %q", i, p.Benchmark, p.Mode, want[i])
		}
		if p.Seconds <= 0 || p.Ops != points[0].Ops || p.Ops == 0 {
			t.Fatalf("mode %q: %d ops in %v s", p.Mode, p.Ops, p.Seconds)
		}
		if p.Sample == 0 {
			if p.Spans != 0 || p.HotOp != "" || p.Overhead != 0 {
				t.Fatalf("off mode carried spans=%d hot op %q overhead %v", p.Spans, p.HotOp, p.Overhead)
			}
			continue
		}
		if p.Spans == 0 {
			t.Fatalf("mode %q retained no spans", p.Mode)
		}
		if p.HotOp == "" || p.P50 == 0 || p.P99 < p.P50 {
			t.Fatalf("mode %q: hot op %q, p50 %d, p99 %d", p.Mode, p.HotOp, p.P50, p.P99)
		}
	}
}

// TestTracerHooksZeroAlloc pins the zero-overhead-when-off contract at the
// allocation level: the hot-path hooks on a nil (disabled) Tracer must not
// allocate, and neither must steady-state Record on an enabled one (the ring
// and histograms are reused, not grown).
func TestTracerHooksZeroAlloc(t *testing.T) {
	var nilTracer *trace.Tracer
	span := trace.Span{Kind: trace.KindRoot, Name: "open", Start: 10, End: 90}

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if nilTracer.Sample() != 0 {
				b.Fatal("nil tracer reported sampling")
			}
			nilTracer.Record(span)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("disabled tracer hooks allocate %d per op", a)
	}

	tr := trace.New(trace.Config{Sample: 1, Ring: 64})
	tr.Record(span) // warm the op histogram and ring
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Record(span)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state Record allocates %d per op", a)
	}
}
