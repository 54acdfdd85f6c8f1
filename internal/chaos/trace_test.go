package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/shadow"
	"repro/internal/trace"
)

// serialTraceConfig is a chaos shape whose traced runs are structurally
// deterministic — the DESIGN.md §11 guarantee requires that the server's
// earliest-arrival inbox pop never race a concurrent push in real time:
//
//   - one worker process (no concurrent clients),
//   - one server (a scatter at CloseAll/Sync is one envelope, so it too
//     keeps one message in flight),
//   - no duplicate deliveries (a dup is a second in-flight message),
//   - no growth headroom (no migrations, so no timing-dependent EEPOCH).
//
// Delay faults stay on (with one message in flight a delay shifts virtual
// time deterministically), as do the quiescent-boundary checkpoint and
// crash/recover events.
func serialTraceConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Cores = 2
	cfg.Servers = 1
	cfg.MaxServers = 1
	cfg.Procs = 1
	cfg.Rounds = 2
	cfg.OpsPerRound = 10
	cfg.DupPercent = 0
	cfg.Trace = trace.Config{Sample: 1, Ring: 1 << 16}
	return cfg
}

// pickSerialSeed returns the first seed whose plan avoids pipe+fork ops:
// a forked pipe child is a second concurrent client, which would make span
// structure (queue spans) scheduling-dependent.
func pickSerialSeed(t *testing.T) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 100; seed++ {
		plan := NewPlan(serialTraceConfig(seed))
		ok := true
		for _, round := range plan.Ops {
			for _, ops := range round {
				for _, op := range ops {
					if op.Kind == shadow.OpPipeFork {
						ok = false
					}
				}
			}
		}
		if ok {
			return seed
		}
	}
	t.Fatal("no pipefork-free seed under 100")
	return 0
}

// TestChaosTraceDeterministic is the tracing determinism gate: rerunning a
// fixed tuple exports a byte-identical canonical span tree.
func TestChaosTraceDeterministic(t *testing.T) {
	cfg := serialTraceConfig(pickSerialSeed(t))
	rep1, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if len(rep1.Spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	c1 := trace.EncodeCanonical(rep1.Spans)
	c2 := trace.EncodeCanonical(rep2.Spans)
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical span trees diverged across reruns of tuple %s (%d vs %d bytes)",
			cfg.Tuple(), len(c1), len(c2))
	}
	if _, err := trace.DecodeCanonical(c1); err != nil {
		t.Fatalf("canonical encoding does not decode: %v", err)
	}
}

// TestTraceOffByDefault pins that an untraced chaos run records nothing.
func TestTraceOffByDefault(t *testing.T) {
	rep, err := Run(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != nil {
		t.Fatalf("untraced run carried %d spans", len(rep.Spans))
	}
}

// TestFailingRunDumpsLoadableTrace forces a failure (a scheduled event of a
// kind the harness does not know) and checks the matrix reporter writes a
// loadable trace dump next to the repro tuple.
func TestFailingRunDumpsLoadableTrace(t *testing.T) {
	cfg := serialTraceConfig(pickSerialSeed(t)).normalized()
	plan := NewPlan(cfg)
	plan.Events = append(plan.Events, Event{Round: cfg.Rounds - 1, Kind: EventKind(255), Server: -1})
	rep, err := RunPlan(plan)
	if err == nil {
		t.Fatal("poisoned plan should fail")
	}
	if rep == nil || len(rep.Spans) == 0 {
		t.Fatal("failing run should still carry its span ring")
	}

	dir := t.TempDir()
	var out strings.Builder
	if failed := reportRun(&out, cfg, rep, err, dir); !failed {
		t.Fatal("reportRun did not flag the failure")
	}
	line := out.String()
	if !strings.Contains(line, "FAIL tuple="+cfg.Tuple()) {
		t.Fatalf("FAIL line missing repro tuple: %q", line)
	}
	if !strings.Contains(line, " trace=") {
		t.Fatalf("FAIL line missing trace dump path: %q", line)
	}
	jsonPath := strings.Fields(strings.SplitAfter(line, "trace=")[1])[0]

	// The dump must be valid Chrome trace_event JSON...
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace dump has no events")
	}
	// ...and the canonical sibling must decode.
	canon, err := os.ReadFile(strings.TrimSuffix(jsonPath, ".json") + ".canon")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.DecodeCanonical(canon); err != nil {
		t.Fatalf("canonical dump does not decode: %v", err)
	}
}
