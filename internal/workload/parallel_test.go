package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The parallel virtual-time engine (DESIGN.md §13) is a pure performance
// layer: with the gate installed or not, every workload must leave a
// byte-identical namespace behind, and structurally-deterministic traced
// runs must produce byte-identical canonical span trees. These tests run
// both modes and compare.

// parallelSystem builds a four-core Hare deployment with the parallel engine
// toggled.
func parallelSystem(t *testing.T, parallel bool, tc trace.Config) (*core.System, *Env) {
	t.Helper()
	return parallelSystemN(t, 4, parallel, tc)
}

// parallelSystemN is parallelSystem with n cores, each timesharing a server.
func parallelSystemN(t *testing.T, n int, parallel bool, tc trace.Config) (*core.System, *Env) {
	t.Helper()
	cfg := core.Config{
		Cores:            n,
		Servers:          n,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 32 << 20,
		Trace:            tc,
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	if parallel {
		if err := sys.SetParallel(true); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Procs: sys.Procs(), Cores: sys.AppCores(), Counter: NewOpCounter(), Scale: 0.05}
	return sys, env
}

func TestParallelModesProduceIdenticalState(t *testing.T) {
	cases := map[string]func() Workload{
		"scale":   func() Workload { return ScaleSweep{FilesPerWorker: 40, DirsPerWorker: 2} },
		"creates": func() Workload { return Creates{PerWorker: 12} },
		"writes":  func() Workload { return Writes{PerWorker: 40, ChunkSize: 1500} },
		"renames": func() Workload { return Renames{PerWorker: 10} },
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			snaps := make(map[bool]map[string]string)
			for _, parallel := range []bool{true, false} {
				sys, env := parallelSystem(t, parallel, trace.Config{})
				w := mk()
				if err := w.Setup(env); err != nil {
					t.Fatalf("setup (parallel=%v): %v", parallel, err)
				}
				if _, err := w.Run(env); err != nil {
					t.Fatalf("run (parallel=%v): %v", parallel, err)
				}
				snap := make(map[string]string)
				snapshotFS(t, sys.NewClient(0), "/", snap)
				snaps[parallel] = snap
			}
			if !reflect.DeepEqual(snaps[true], snaps[false]) {
				t.Fatalf("namespace diverged between engines:\npar: %v\nser: %v", snaps[true], snaps[false])
			}
			if len(snaps[true]) == 0 {
				t.Fatal("snapshot is empty; the workload left nothing to compare")
			}
		})
	}
}

// TestParallelModeChaosFaultEquivalence installs the chaos harness's
// message-fault tuple — seeded delivery-latency jitter plus duplicate
// delivery of idempotent requests — in both engines and compares the final
// namespaces. Fault decisions are pure functions of the message coordinates
// (DESIGN.md §10), so they survive the engine swap; the duplicate's surplus
// reply must not disturb the gate (Envelope.noResume).
func TestParallelModeChaosFaultEquivalence(t *testing.T) {
	idempotent := map[proto.Op]bool{
		proto.OpLookup: true, proto.OpStat: true, proto.OpGetBlocks: true,
		proto.OpReadDirShard: true, proto.OpFdGetInfo: true, proto.OpPing: true,
	}
	dupOK := func(kind uint16, payload []byte) bool {
		if kind != proto.KindRequest {
			return false
		}
		req, err := proto.UnmarshalRequest(payload)
		if err != nil {
			return false
		}
		return idempotent[req.Op]
	}
	snaps := make(map[bool]map[string]string)
	for _, parallel := range []bool{true, false} {
		sys, env := parallelSystem(t, parallel, trace.Config{})
		sys.Network().SetFaultPlan(&msg.FaultPlan{
			Seed:         42,
			MaxDelay:     5000,
			DelayPercent: 30,
			DupPercent:   20,
			DupOK:        dupOK,
		})
		// A stat in two files: a worker's first stat carries its last create's
		// clean close, which no duplicate may repeat; the rest go bare.
		w := ScaleSweep{FilesPerWorker: 30, DirsPerWorker: 2, StatEvery: 2}
		if err := w.Setup(env); err != nil {
			t.Fatalf("setup (parallel=%v): %v", parallel, err)
		}
		if _, err := w.Run(env); err != nil {
			t.Fatalf("run (parallel=%v): %v", parallel, err)
		}
		stats := sys.Network().FaultStats()
		if stats.Delayed == 0 || stats.Duplicated == 0 {
			t.Fatalf("fault plan injected nothing (parallel=%v): %+v", parallel, stats)
		}
		sys.Network().SetFaultPlan(nil)
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/scale", snap)
		snaps[parallel] = snap
	}
	if !reflect.DeepEqual(snaps[true], snaps[false]) {
		t.Fatalf("faulted namespace diverged between engines:\npar: %v\nser: %v", snaps[true], snaps[false])
	}
	if len(snaps[true]) == 0 {
		t.Fatal("faulted run left nothing to compare")
	}
}

// seqTraceOps is a single-process operation stream: with one client and no
// concurrency, span structure is deterministic (DESIGN.md §11), so the
// canonical tree must survive the engine swap byte-for-byte.
func seqTraceOps(fs fsapi.Client) error {
	if err := fs.Mkdir("/seq", fsapi.MkdirOpt{Distributed: true}); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/seq/f%02d", i)
		fd, err := fs.Open(name, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			return err
		}
		if _, err := fs.Write(fd, []byte("payload")); err != nil {
			return err
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		if _, err := fs.Stat(name); err != nil {
			return err
		}
	}
	if _, err := fs.ReadDir("/seq"); err != nil {
		return err
	}
	if _, err := fs.Stat("/seq/missing"); err == nil {
		return fmt.Errorf("stat of missing file succeeded")
	}
	return fs.Unlink("/seq/f03")
}

func TestParallelModeCanonicalTraceEquivalence(t *testing.T) {
	canon := make(map[bool][]byte)
	for _, parallel := range []bool{true, false} {
		sys, env := parallelSystem(t, parallel, trace.Config{Sample: 1, Ring: 1 << 16})
		err := runRoot(env, "seq-trace", func(p *sched.Proc) int {
			if err := seqTraceOps(p.FS); err != nil {
				t.Errorf("seq ops (parallel=%v): %v", parallel, err)
				return 1
			}
			return 0
		})
		if err != nil {
			t.Fatalf("root (parallel=%v): %v", parallel, err)
		}
		spans := sys.Tracer().Spans()
		if len(spans) == 0 {
			t.Fatalf("no spans recorded (parallel=%v)", parallel)
		}
		canon[parallel] = trace.EncodeCanonical(spans)
	}
	if !bytes.Equal(canon[true], canon[false]) {
		t.Fatalf("canonical trace trees diverged between engines:\npar %d bytes, ser %d bytes",
			len(canon[true]), len(canon[false]))
	}
}
