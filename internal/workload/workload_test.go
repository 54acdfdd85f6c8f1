package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline/ramfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

// hareEnv builds a small Hare deployment and returns a workload Env over it.
func hareEnv(t *testing.T, cores int) (*Env, func()) {
	t.Helper()
	sys, err := core.New(core.Config{
		Cores:            cores,
		Servers:          cores,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	env := &Env{
		Procs:   sys.Procs(),
		Cores:   sys.AppCores(),
		Counter: NewOpCounter(),
		Scale:   0.05,
	}
	return env, sys.Stop
}

// ramfsEnv builds the shared-memory baseline and returns an Env over it,
// and the file system itself.
func ramfsEnv(t *testing.T, cores int) (*Env, *ramfs.FS) {
	t.Helper()
	machine := sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())
	fs := ramfs.New(machine)
	appCores := make([]int, cores)
	for i := range appCores {
		appCores[i] = i
	}
	procs := sched.NewSMPSystem(sched.SMPConfig{
		Machine:  machine,
		AppCores: appCores,
		Policy:   sched.PolicyRoundRobin,
		NewClient: func(c int) fsapi.Client {
			return fs.NewClient(c)
		},
	})
	return &Env{Procs: procs, Cores: appCores, Counter: NewOpCounter(), Scale: 0.05}, fs
}

// runOne runs a workload's setup and timed phases and checks basic
// invariants: no error, a positive op count, and virtual time advanced.
func runOne(t *testing.T, env *Env, w Workload) {
	t.Helper()
	// Workloads with a randomized op mix (fsstress, the synthetic data
	// generators) derive all randomness from fixed per-worker seeds
	// (newRand(idx*1234567+1), fillPattern): log the scheme so a failing
	// run names its seeds.
	t.Logf("%s: deterministic xorshift seeds (worker idx*1234567+1)", w.Name())
	if err := w.Setup(env); err != nil {
		t.Fatalf("%s setup: %v", w.Name(), err)
	}
	before := env.Procs.MaxEndTime()
	ops, err := w.Run(env)
	if err != nil {
		t.Fatalf("%s run: %v", w.Name(), err)
	}
	if ops <= 0 {
		t.Fatalf("%s reported %d ops", w.Name(), ops)
	}
	if env.Procs.MaxEndTime() <= before {
		t.Fatalf("%s did not advance virtual time", w.Name())
	}
	if env.Counter.Total() == 0 {
		t.Fatalf("%s issued no POSIX calls", w.Name())
	}
}

func TestAllWorkloadsOnHare(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			env, stop := hareEnv(t, 4)
			defer stop()
			runOne(t, env, w)
		})
	}
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

// The async RPC pipeline (DESIGN.md §7) and the zero-waste data path
// (DESIGN.md §8) are pure performance layers: batched and chained requests,
// riding closes, extend-ahead, dirty-line writeback and version-skipped
// invalidation must leave behind, byte for byte, the namespace the coherent
// shared-memory baseline leaves for the same workload. The two tests below
// once compared each layer on with the same layer off; both layers are
// unconditional now, so ramfs is the reference that stays.

func TestPipeliningModesProduceIdenticalState(t *testing.T) {
	matchesRamfs(t, map[string]func() Workload{
		"smallfile": func() Workload { return SmallFile{PerWorker: 15, WriteBytes: 700} },
		"creates":   func() Workload { return Creates{PerWorker: 12} },
		"fsstress":  func() Workload { return FSStress{PerWorker: 60} },
		"renames":   func() Workload { return Renames{PerWorker: 10} },
		"writes":    func() Workload { return Writes{PerWorker: 40, ChunkSize: 1500} },
	})
}

func TestDataPathModesProduceIdenticalState(t *testing.T) {
	matchesRamfs(t, map[string]func() Workload{
		"bigfile":   func() Workload { return BigFile{FileKiB: 64, Rounds: 2} },
		"writes":    func() Workload { return Writes{PerWorker: 40, ChunkSize: 1500} },
		"smallfile": func() Workload { return SmallFile{PerWorker: 15, WriteBytes: 700} },
		"fsstress":  func() Workload { return FSStress{PerWorker: 60} },
	})
}

// matchesRamfs runs each case on Hare and on ramfs, one subtest per case,
// and requires identical snapshots of the whole tree. The cases make fresh
// workload instances per run: some workloads carry state between Setup and
// Run.
func matchesRamfs(t *testing.T, cases map[string]func() Workload) {
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			snap := func(env *Env, fs fsapi.Client) map[string]string {
				w := mk()
				if err := w.Setup(env); err != nil {
					t.Fatalf("setup on %T: %v", fs, err)
				}
				if _, err := w.Run(env); err != nil {
					t.Fatalf("run on %T: %v", fs, err)
				}
				out := make(map[string]string)
				snapshotFS(t, fs, "/", out)
				return out
			}
			sys, env := hareSystem(t, nil)
			hare := snap(env, sys.NewClient(0))
			env, fs := ramfsEnv(t, 4)
			want := snap(env, fs.NewClient(0))
			if !reflect.DeepEqual(hare, want) {
				t.Fatalf("Hare's namespace differs from ramfs's:\n hare: %v\nramfs: %v", hare, want)
			}
			if len(want) == 0 {
				t.Fatal("snapshot is empty; the workload left nothing to compare")
			}
		})
	}
}

func TestAllWorkloadsOnRamfs(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			env, _ := ramfsEnv(t, 4)
			runOne(t, env, w)
		})
	}
}

func TestWorkloadsSingleCore(t *testing.T) {
	// Every benchmark must also run on a single core (the scalability
	// baseline configuration).
	for _, w := range []Workload{Creates{}, &PFind{Sparse: true}, Mailbench{}, BuildLinux{}} {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			env, stop := hareEnv(t, 1)
			defer stop()
			runOne(t, env, w)
		})
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	// The paper's 13 benchmarks plus the smallfile churn microbenchmark
	// added with the async RPC pipeline (DESIGN.md §7) and the bigfile
	// data-path microbenchmark (DESIGN.md §8).
	if len(names) != 15 {
		t.Fatalf("expected 15 benchmarks, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate benchmark name %q", n)
		}
		seen[n] = true
		if _, ok := ByName(n); !ok {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown benchmark")
	}
	for _, n := range []string{"build linux", "mailbench", "pfind sparse", "rm dense", "smallfile", "bigfile"} {
		if !seen[n] {
			t.Fatalf("missing benchmark %q", n)
		}
	}
	if len(Microbenchmarks()) == 0 || len(ParallelBenchmarks()) == 0 {
		t.Fatal("benchmark subsets empty")
	}
}

func TestPlacementPolicies(t *testing.T) {
	// The paper uses random placement for build linux and punzip, and
	// round-robin for the rest.
	for _, w := range All() {
		want := sched.PolicyRoundRobin
		if w.Name() == "build linux" || w.Name() == "punzip" {
			want = sched.PolicyRandom
		}
		if w.Placement() != want {
			t.Errorf("%s placement = %v, want %v", w.Name(), w.Placement(), want)
		}
	}
}

func TestOpCounter(t *testing.T) {
	c := NewOpCounter()
	env, stop := hareEnv(t, 2)
	defer stop()
	env.Counter = c
	w := Creates{PerWorker: 10}
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if _, err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	if c.Count(ClassCreate) == 0 || c.Count(ClassClose) == 0 {
		t.Fatalf("creates benchmark should count creates and closes: %v %v",
			c.Count(ClassCreate), c.Count(ClassClose))
	}
	bd := c.Breakdown()
	var sum float64
	for _, share := range bd {
		sum += share
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("breakdown shares sum to %f", sum)
	}
}

func TestOpClassNames(t *testing.T) {
	for _, c := range OpClasses() {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	if OpClass(200).String() != "other" {
		t.Fatal("out-of-range class should be 'other'")
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	a, b := newRand(7), newRand(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("xorshift not deterministic")
		}
	}
	r := newRand(0)
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		v := r.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		counts[v]++
	}
	if len(counts) < 8 {
		t.Fatal("intn poorly distributed")
	}
	if r.intn(0) != 0 {
		t.Fatal("intn(0) should be 0")
	}
}

func TestTreeSpecShapes(t *testing.T) {
	env := &Env{Scale: 1.0}
	dense := denseTree(env)
	sparse := sparseTree(env)
	if len(dense.allFiles()) == 0 {
		t.Fatal("dense tree has no files")
	}
	if len(sparse.allFiles()) != 0 {
		t.Fatal("sparse tree should have no files")
	}
	if len(sparse.allDirs()) <= len(dense.allDirs()) {
		t.Fatal("sparse tree should have more directories than dense")
	}
	// Directory listings at each level have the expected fanout.
	if got := len(dense.dirsAtLevel(0)); got != dense.topDirs {
		t.Fatalf("level 0 has %d dirs", got)
	}
	if got := len(dense.dirsAtLevel(1)); got != dense.topDirs*dense.fanout {
		t.Fatalf("level 1 has %d dirs", got)
	}
}
