package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/trace"
)

// newTracedSystem builds a deployment with tracing on (every op sampled).
func newTracedSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.Trace.Sample == 0 {
		cfg.Trace = trace.Config{Sample: 1}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

func tracedConfig(cores, servers int) Config {
	return Config{
		Cores:            cores,
		Servers:          servers,
		Timeshare:        true,
		Techniques:       AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 8 << 20,
		BlockSize:        4096,
		Trace:            trace.Config{Sample: 1},
	}
}

// spanIndex maps span IDs to spans for parent-edge checks.
func spanIndex(spans []trace.Span) map[uint64]trace.Span {
	idx := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		idx[s.ID] = s
	}
	return idx
}

// TestTraceSpanNesting drives a few ops through a traced deployment and
// checks the propagation edges: every span belongs to a root's trace, RPC
// spans hang off roots, and server-side spans hang off the request's
// client-side span.
func TestTraceSpanNesting(t *testing.T) {
	sys := newTracedSystem(t, tracedConfig(4, 2))
	cli := sys.NewClient(0)

	fd, err := cli.Open("/a.txt", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(fd, bytes.Repeat([]byte("x"), 9000)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Stat("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	_ = st

	spans := sys.Tracer().Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	idx := spanIndex(spans)
	roots := make(map[uint64]trace.Span)
	for _, s := range spans {
		if s.Kind == trace.KindRoot {
			roots[s.Trace] = s
			if s.Trace != s.ID {
				t.Errorf("root span %x: trace id %x should equal its own id", s.ID, s.Trace)
			}
		}
	}
	if len(roots) < 4 {
		t.Fatalf("expected root spans for open/write/close/stat, got %d", len(roots))
	}
	var rpcs, services, nets int
	for _, s := range spans {
		if _, ok := roots[s.Trace]; !ok {
			t.Errorf("span kind=%s id=%x: trace %x has no root span", s.Kind, s.ID, s.Trace)
			continue
		}
		switch s.Kind {
		case trace.KindRoot:
			if s.Parent != 0 {
				t.Errorf("root span %x has parent %x", s.ID, s.Parent)
			}
		case trace.KindRPC:
			rpcs++
			if s.Parent != roots[s.Trace].ID {
				t.Errorf("rpc span %x: parent %x is not its root %x", s.ID, s.Parent, roots[s.Trace].ID)
			}
			if s.Where < 0 {
				t.Errorf("rpc span %x recorded by a server (where %d)", s.ID, s.Where)
			}
		case trace.KindNetReq, trace.KindQueue, trace.KindService:
			if s.Kind == trace.KindService {
				services++
			} else if s.Kind == trace.KindNetReq {
				nets++
			}
			if s.Where >= 0 {
				t.Errorf("%s span %x recorded by a client (where %d)", s.Kind, s.ID, s.Where)
			}
			parent, ok := idx[s.Parent]
			if !ok {
				// The parent is the request's client-side span; sync RPCs
				// stamp the RPC span, async sends stamp the root.
				t.Errorf("%s span %x: parent %x not in ring", s.Kind, s.ID, s.Parent)
				continue
			}
			if parent.Kind != trace.KindRPC && parent.Kind != trace.KindRoot {
				t.Errorf("%s span %x: parent kind %s, want rpc or root", s.Kind, s.ID, parent.Kind)
			}
		}
		if s.End < s.Start {
			t.Errorf("span %x (%s) ends at %d before start %d", s.ID, s.Kind, s.End, s.Start)
		}
	}
	if rpcs == 0 || services == 0 || nets == 0 {
		t.Fatalf("missing span kinds: %d rpc, %d service, %d net", rpcs, services, nets)
	}
}

// TestTraceBatchSubSpans forces a batched scatter (several dirty files per
// server, flushed by Sync) and checks that every batch sub-op got a child
// span under the batch envelope's service span.
func TestTraceBatchSubSpans(t *testing.T) {
	sys := newTracedSystem(t, tracedConfig(4, 2))
	cli := sys.NewClient(0)

	// Several dirty files per server: Sync packs the per-server size
	// updates into OpBatch envelopes.
	for i := 0; i < 8; i++ {
		fd, err := cli.Open(fmt.Sprintf("/b%02d", i), fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(fd, bytes.Repeat([]byte("y"), 600)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Sync(); err != nil {
		t.Fatal(err)
	}

	spans := sys.Tracer().Spans()
	idx := spanIndex(spans)
	subs := 0
	for _, s := range spans {
		if s.Kind != trace.KindSub {
			continue
		}
		subs++
		parent, ok := idx[s.Parent]
		if !ok {
			t.Fatalf("sub span %x: parent %x not recorded", s.ID, s.Parent)
		}
		if parent.Kind != trace.KindService {
			t.Fatalf("sub span %x: parent kind %s, want service", s.ID, parent.Kind)
		}
		if s.Trace != parent.Trace {
			t.Fatalf("sub span %x: trace %x differs from parent's %x", s.ID, s.Trace, parent.Trace)
		}
		if s.Start < parent.Start || s.End > parent.End {
			t.Errorf("sub span %x [%d,%d] outside service span [%d,%d]", s.ID, s.Start, s.End, parent.Start, parent.End)
		}
	}
	if subs == 0 {
		t.Fatal("no batch sub spans recorded; expected the writeback to batch")
	}
}

// TestTraceEpochRetryChainsIntoRoot grows the fleet under a client with a
// cached routing snapshot and checks that the resulting EEPOCH
// refresh-and-retry rounds appear as spans chained into the op's root, not
// as fresh traces.
func TestTraceEpochRetryChainsIntoRoot(t *testing.T) {
	cfg := tracedConfig(4, 2)
	cfg.MaxServers = 4
	cfg.PlacePolicy = place.PolicyRing
	sys := newTracedSystem(t, cfg)
	cli := sys.NewClient(0)

	if err := cli.Mkdir("/dist", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	mkfile := func(path string) {
		t.Helper()
		fd, err := cli.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		mkfile(fmt.Sprintf("/dist/pre%d", i))
	}
	if _, err := sys.AddServer(cli); err != nil {
		t.Fatal(err)
	}
	// The client's snapshot is now stale: the next placement-routed ops
	// answer EEPOCH and retry after a refresh.
	for i := 0; i < 8; i++ {
		mkfile(fmt.Sprintf("/dist/post%d", i))
	}

	spans := sys.Tracer().Spans()
	idx := spanIndex(spans)
	refreshes := 0
	for _, s := range spans {
		if s.Kind != trace.KindEpochRefresh {
			continue
		}
		refreshes++
		parent, ok := idx[s.Parent]
		if !ok {
			t.Fatalf("eepoch span %x: parent %x not recorded", s.ID, s.Parent)
		}
		if parent.Kind != trace.KindRoot {
			t.Fatalf("eepoch span %x: parent kind %s, want the op's root", s.ID, parent.Kind)
		}
		if s.Trace != parent.Trace {
			t.Fatalf("eepoch span %x: trace %x differs from root's %x", s.ID, s.Trace, parent.Trace)
		}
		// The retry's RPC must be in the same trace, after the refresh.
		retried := false
		for _, r := range spans {
			if r.Kind == trace.KindRPC && r.Trace == s.Trace && r.End >= s.End {
				retried = true
				break
			}
		}
		if !retried {
			t.Errorf("eepoch span %x: no RPC span in trace %x at or after the refresh", s.ID, s.Trace)
		}
	}
	if refreshes == 0 {
		t.Fatal("no EEPOCH refresh spans; expected the stale snapshot to retry")
	}
}

// TestTraceCrashRecoverNoIDReuse crashes and recovers a server mid-trace
// and checks that its span IDs never repeat: recovery bumps the emitter
// incarnation, giving the reborn server a fresh ID namespace.
func TestTraceCrashRecoverNoIDReuse(t *testing.T) {
	cfg := tracedConfig(2, 1)
	cfg.Durability = Durability{Enabled: true}
	sys := newTracedSystem(t, cfg)
	cli := sys.NewClient(0)

	mkfile := func(path string) {
		t.Helper()
		fd, err := cli.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(fd, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		mkfile(fmt.Sprintf("/pre%d", i))
	}
	before := len(sys.Tracer().Spans())
	if err := sys.Crash(cli, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(cli, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mkfile(fmt.Sprintf("/post%d", i))
	}

	spans := sys.Tracer().Spans()
	if len(spans) <= before {
		t.Fatal("no spans recorded after recovery")
	}
	seen := make(map[uint64]trace.Span)
	serverSpans := 0
	for _, s := range spans {
		if prev, dup := seen[s.ID]; dup {
			t.Fatalf("span id %x reused: first %s@%d, again %s@%d", s.ID, prev.Kind, prev.Start, s.Kind, s.Start)
		}
		seen[s.ID] = s
		if s.Where < 0 {
			serverSpans++
		}
	}
	if serverSpans == 0 {
		t.Fatal("no server-side spans recorded")
	}
}

// TestTraceSampleZeroIsFree pins the zero-overhead-when-off contract: a
// deployment with Trace.Sample=0 builds no tracer, stamps no wire trailers,
// and runs the exact same virtual timeline and message economy as one with
// no Trace config at all.
func TestTraceSampleZeroIsFree(t *testing.T) {
	run := func(tc trace.Config) (*System, func()) {
		cfg := tracedConfig(2, 2)
		cfg.Trace = tc
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		cli := sys.NewClient(0)
		fd, err := cli.Open("/f", fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(fd, bytes.Repeat([]byte("z"), 5000)); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := cli.Mkdir("/d", fsapi.MkdirOpt{}); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.ReadDir("/"); err != nil {
			t.Fatal(err)
		}
		return sys, sys.Stop
	}
	a, stopA := run(trace.Config{})
	defer stopA()
	b, stopB := run(trace.Config{Sample: 0, Ring: 4096})
	defer stopB()

	if a.Tracer() != nil || b.Tracer() != nil {
		t.Fatal("Sample=0 must not build a tracer")
	}
	ea, eb := a.MessageEconomy(), b.MessageEconomy()
	if ea != eb {
		t.Fatalf("economy diverged with Sample=0:\n  none: %+v\n  zero: %+v", ea, eb)
	}
	if ca, cb := a.MaxServerClock(), b.MaxServerClock(); ca != cb {
		t.Fatalf("virtual timeline diverged with Sample=0: %d vs %d cycles", ca, cb)
	}
}

// goldenTraceRun executes a fixed, single-client smallfile-style sequence —
// virtually deterministic — and returns the Chrome trace_event export.
func goldenTraceRun(t *testing.T) []byte {
	t.Helper()
	sys := newTracedSystem(t, tracedConfig(2, 2))
	cli := sys.NewClient(0)
	if err := cli.Mkdir("/small", fsapi.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/small/f%02d", i)
		fd, err := cli.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(fd, bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
		fd, err = cli.Open(path, fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1024)
		if _, err := cli.Read(fd, buf); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.ReadDir("/small"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unlink("/small/f00"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, sys.Tracer().Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenChromeExport is the CI determinism gate: the fixed-seed
// smallfile-style run must export byte-identical Chrome trace JSON on every
// run, matching the committed golden file. Regenerate with
// UPDATE_TRACE_GOLDEN=1 go test ./internal/core -run GoldenChrome.
func TestTraceGoldenChromeExport(t *testing.T) {
	got := goldenTraceRun(t)
	again := goldenTraceRun(t)
	if !bytes.Equal(got, again) {
		t.Fatal("two identical runs exported different Chrome JSON")
	}

	// The export must be valid Chrome trace_event JSON (Perfetto-loadable).
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no trace events")
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if os.Getenv("UPDATE_TRACE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_TRACE_GOLDEN=1 go test ./internal/core -run GoldenChrome): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Chrome export diverged from %s (got %d bytes, want %d); if the cost model or span wiring changed intentionally, regenerate with UPDATE_TRACE_GOLDEN=1", golden, len(got), len(want))
	}
}
