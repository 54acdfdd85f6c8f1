package workload

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// The zero-waste data path (DESIGN.md §8) is a pure performance layer:
// dirty-line writeback, version-skipped invalidation, and extent-coded block
// maps must leave a byte-identical namespace behind with the technique on or
// off — including when another client wrote the file between close and
// reopen (the case version matching must never mistake for "unchanged"),
// and including crash recovery with durability enabled.

// datapathSystem builds a Hare deployment with the data path toggled.
func datapathSystem(t *testing.T, datapath bool, d *core.Durability) (*core.System, *Env) {
	t.Helper()
	tq := core.AllTechniques()
	tq.DataPath = datapath
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

func TestDataPathModesProduceIdenticalState(t *testing.T) {
	cases := map[string]func() Workload{
		"bigfile":   func() Workload { return BigFile{FileKiB: 64, Rounds: 2} },
		"writes":    func() Workload { return Writes{PerWorker: 40, ChunkSize: 1500} },
		"smallfile": func() Workload { return SmallFile{PerWorker: 15, WriteBytes: 700} },
		"fsstress":  func() Workload { return FSStress{PerWorker: 60} },
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			snaps := make(map[bool]map[string]string)
			for _, datapath := range []bool{true, false} {
				sys, env := datapathSystem(t, datapath, nil)
				w := mk()
				if err := w.Setup(env); err != nil {
					t.Fatalf("setup (datapath=%v): %v", datapath, err)
				}
				if _, err := w.Run(env); err != nil {
					t.Fatalf("run (datapath=%v): %v", datapath, err)
				}
				snap := make(map[string]string)
				snapshotFS(t, sys.NewClient(0), "/", snap)
				snaps[datapath] = snap
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

// TestDataPathReopenAfterRemoteWrite pins the consistency contract version
// matching must preserve: a reopen after another client wrote and closed the
// file must see the new data (the remote close moved the version, so the
// stale cached copy is invalidated), while a reopen after only local
// activity skips invalidation and still reads correctly.
func TestDataPathReopenAfterRemoteWrite(t *testing.T) {
	sys, _ := datapathSystem(t, true, nil)
	a := sys.NewClient(0)
	b := sys.NewClient(2)

	p1 := bytes.Repeat([]byte{0x11}, 9000) // spans 3 blocks
	p2 := bytes.Repeat([]byte{0x22}, 9000)

	writeAll := func(c fsapi.Client, data []byte) {
		t.Helper()
		fd, err := c.Open("/shared-data", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(fd, data); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(c fsapi.Client, n int) []byte {
		t.Helper()
		fd, err := c.Open("/shared-data", fsapi.ORdOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		total := 0
		for total < n {
			m, err := c.Read(fd, buf[total:])
			if err != nil || m == 0 {
				break
			}
			total += m
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
		return buf[:total]
	}

	writeAll(a, p1)
	// b reads p1, caching the blocks on its core.
	if got := readAll(b, len(p1)); !bytes.Equal(got, p1) {
		t.Fatal("b's first read did not see a's data")
	}
	// b reopens with nothing changed: the version matches, invalidation is
	// skipped, and the data is still correct.
	if got := readAll(b, len(p1)); !bytes.Equal(got, p1) {
		t.Fatal("b's version-matched reread returned wrong data")
	}
	if skips := b.Stats().VersionSkips; skips == 0 {
		t.Fatal("b's matched reopen did not take the version-skip path")
	}
	// a overwrites and closes; b's cached copy is now stale and its next
	// open must invalidate (version moved) and read p2 — never p1.
	writeAll(a, p2)
	if got := readAll(b, len(p2)); !bytes.Equal(got, p2) {
		t.Fatal("b read stale data after a remote write: version skip served a dead version")
	}
	// a's own reopen skips (it wrote last) and sees its own data.
	before := a.Stats().VersionSkips
	if got := readAll(a, len(p2)); !bytes.Equal(got, p2) {
		t.Fatal("a's reread after its own close is wrong")
	}
	if a.Stats().VersionSkips == before {
		t.Fatal("a's reopen after its own dirty close did not skip invalidation")
	}
}

// TestDataPathCrashRecoveryBothModes runs the self-verifying crash-injection
// workload with the data path on and off under durability, and compares the
// recovered namespaces across modes. Recovery restarts versions in a fresh
// incarnation range, so post-recovery opens must never skip on a pre-crash
// version.
func TestDataPathCrashRecoveryBothModes(t *testing.T) {
	snaps := make(map[bool]map[string]string)
	for _, datapath := range []bool{true, false} {
		d := &core.Durability{Enabled: true, CheckpointEvery: 16}
		sys, env := datapathSystem(t, datapath, d)
		env.Scale = 1
		w := CrashRecovery{FilesPerRound: 3}
		runOne(t, env, w)
		snap := make(map[string]string)
		snapshotFS(t, sys.NewClient(0), "/crash", snap)
		snaps[datapath] = snap
	}
	if !reflect.DeepEqual(snaps[true], snaps[false]) {
		t.Fatalf("recovered namespace diverged between modes:\n on: %v\noff: %v", snaps[true], snaps[false])
	}
	if len(snaps[true]) == 0 {
		t.Fatal("crash workload left nothing to compare")
	}
}
