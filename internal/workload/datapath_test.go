package workload

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

// hareSystem builds a 4-core Hare deployment, with durability when d is not
// nil, and an Env over it.
func hareSystem(t *testing.T, d *core.Durability) (*core.System, *Env) {
	t.Helper()
	cfg := core.Config{
		Cores:            4,
		Servers:          4,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
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
		env.Faults = coreControl{sys}
	}
	return sys, env
}

// TestDataPathReopenAfterRemoteWrite pins the consistency contract version
// matching must preserve: a reopen after another client wrote and closed the
// file must see the new data (the remote close moved the version, so the
// stale cached copy is invalidated), while a reopen after only local
// activity skips invalidation and still reads correctly.
func TestDataPathReopenAfterRemoteWrite(t *testing.T) {
	sys, _ := hareSystem(t, nil)
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
// workload under durability: it checks the namespace against its shadow
// model after every recovery. Recovery restarts versions in a fresh
// incarnation range, so post-recovery opens must never skip on a pre-crash
// version. The data path is always on now, so one run is left of the two
// this test once compared.
func TestDataPathCrashRecoveryBothModes(t *testing.T) {
	crashRecoveryOnce(t)
}

// TestCrashRecoveryWorkloadBothPipeliningModes: the crash-injection workload
// holds with the pipeline, whose batches and riding closes are in flight
// when a server crashes. Pipelining is always on now, so one run is left of
// the two this test once compared.
func TestCrashRecoveryWorkloadBothPipeliningModes(t *testing.T) {
	crashRecoveryOnce(t)
}

func crashRecoveryOnce(t *testing.T) {
	_, env := hareSystem(t, &core.Durability{Enabled: true, CheckpointEvery: 16})
	env.Scale = 1
	runOne(t, env, CrashRecovery{FilesPerRound: 3})
}
