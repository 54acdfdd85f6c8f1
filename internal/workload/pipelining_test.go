package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// The async RPC pipeline (DESIGN.md §7) is a pure performance layer: with
// pipelining on or off, every workload must leave a byte-identical namespace
// behind. These tests run representative workloads in both modes and
// compare full file-system snapshots.

// pipelineSystem builds a Hare deployment with the pipeline toggled.
func pipelineSystem(t *testing.T, pipelining bool, d *core.Durability) (*core.System, *Env) {
	t.Helper()
	tq := core.AllTechniques()
	tq.RPCPipelining = pipelining
	cfg := core.Config{
		Cores:            4,
		Servers:          4,
		Timeshare:        true,
		Techniques:       tq,
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 32 << 20,
	}
	if d != nil {
		cfg.Durability = *d
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	env := &Env{Procs: sys.Procs(), Cores: sys.AppCores(), Counter: NewOpCounter(), Scale: 0.05}
	if d != nil {
		env.Faults = coreFaults{sys}
	}
	return sys, env
}

// snapshotFS walks the tree under dir and records every entry: directories
// by name, files by size and contents.
func snapshotFS(t *testing.T, fs fsapi.Client, dir string, out map[string]string) {
	t.Helper()
	ents, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir %s: %v", dir, err)
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if dir == "/" {
			path = "/" + ent.Name
		}
		if ent.Type == fsapi.TypeDir {
			out[path] = "dir"
			snapshotFS(t, fs, path, out)
			continue
		}
		st, err := fs.Stat(path)
		if err != nil {
			t.Fatalf("stat %s: %v", path, err)
		}
		fd, err := fs.Open(path, fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		buf := make([]byte, st.Size)
		total := 0
		for total < len(buf) {
			n, err := fs.Read(fd, buf[total:])
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		fs.Close(fd)
		out[path] = fmt.Sprintf("file[%d]:%x", st.Size, buf[:total])
	}
}

func TestPipeliningModesProduceIdenticalState(t *testing.T) {
	// Fresh workload instances per run: some workloads carry state between
	// Setup and Run.
	cases := map[string]func() Workload{
		"smallfile": func() Workload { return SmallFile{PerWorker: 15, WriteBytes: 700} },
		"creates":   func() Workload { return Creates{PerWorker: 12} },
		"fsstress":  func() Workload { return FSStress{PerWorker: 60} },
		"renames":   func() Workload { return Renames{PerWorker: 10} },
		"writes":    func() Workload { return Writes{PerWorker: 40, ChunkSize: 1500} },
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			snaps := make(map[bool]map[string]string)
			for _, pipelining := range []bool{true, false} {
				sys, env := pipelineSystem(t, pipelining, nil)
				w := mk()
				if err := w.Setup(env); err != nil {
					t.Fatalf("setup (pipelining=%v): %v", pipelining, err)
				}
				if _, err := w.Run(env); err != nil {
					t.Fatalf("run (pipelining=%v): %v", pipelining, err)
				}
				snap := make(map[string]string)
				snapshotFS(t, sys.NewClient(0), "/", snap)
				snaps[pipelining] = snap
			}
			if !reflect.DeepEqual(snaps[true], snaps[false]) {
				t.Fatalf("namespace diverged between modes:\n on: %v\noff: %v", snaps[true], snaps[false])
			}
			if len(snaps[true]) == 0 {
				t.Fatal("snapshot is empty; the workload left nothing to compare")
			}
		})
	}
}

func TestCrashRecoveryWorkloadBothPipeliningModes(t *testing.T) {
	// The crash-injection workload self-verifies against a shadow model
	// after every recovery; it must hold with the pipeline on and off, and
	// the recovered namespaces must match across modes.
	snaps := make(map[bool]map[string]string)
	for _, pipelining := range []bool{true, false} {
		d := &core.Durability{Enabled: true, CheckpointEvery: 16}
		sys, env := pipelineSystem(t, pipelining, d)
		env.Scale = 1
		w := CrashRecovery{FilesPerRound: 3}
		runOne(t, env, w)
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/crash", snap)
		snaps[pipelining] = snap
	}
	if !reflect.DeepEqual(snaps[true], snaps[false]) {
		t.Fatalf("recovered namespace diverged between modes:\n on: %v\noff: %v", snaps[true], snaps[false])
	}
	if len(snaps[true]) == 0 {
		t.Fatal("crash workload left nothing to compare")
	}
}
