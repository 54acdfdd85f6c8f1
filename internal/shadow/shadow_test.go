package shadow_test

import (
	"bytes"
	"testing"

	"repro/internal/baseline/ramfs"
	"repro/internal/fsapi"
	"repro/internal/shadow"
	"repro/internal/sim"
)

func TestFileFlatSemantics(t *testing.T) {
	f := shadow.NewFile(nil)
	f.WriteAt(0, []byte("hello"))
	f.WriteAt(8, []byte("world")) // sparse gap zero-fills
	if f.Size() != 13 {
		t.Fatalf("size = %d, want 13", f.Size())
	}
	want := append([]byte("hello\x00\x00\x00"), []byte("world")...)
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatalf("bytes = %q, want %q", f.Bytes(), want)
	}
	f.Truncate(4)
	if string(f.Bytes()) != "hell" {
		t.Fatalf("after shrink: %q", f.Bytes())
	}
	f.Truncate(6)
	if !bytes.Equal(f.Bytes(), []byte("hell\x00\x00")) {
		t.Fatalf("after grow: %q", f.Bytes())
	}
	data := []byte("new")
	g := shadow.NewFile(data)
	data[0] = 'X'
	if g.Bytes()[0] == 'X' {
		t.Fatal("NewFile aliases its argument")
	}
}

func TestNormalizeRunsAndContain(t *testing.T) {
	runs := []shadow.Run{{Start: 10, Count: 3}, {Start: 2, Count: 2}, {Start: 11, Count: 4}, {Start: 4, Count: 1}}
	norm := shadow.NormalizeRuns(runs)
	want := []shadow.Run{{Start: 2, Count: 3}, {Start: 10, Count: 5}}
	if len(norm) != len(want) {
		t.Fatalf("normalize = %+v, want %+v", norm, want)
	}
	for i := range want {
		if norm[i] != want[i] {
			t.Fatalf("normalize[%d] = %+v, want %+v", i, norm[i], want[i])
		}
	}
	for _, b := range []uint64{2, 4, 10, 14} {
		if !shadow.RunsContain(norm, b) {
			t.Fatalf("RunsContain(%d) = false", b)
		}
	}
	for _, b := range []uint64{1, 5, 15} {
		if shadow.RunsContain(norm, b) {
			t.Fatalf("RunsContain(%d) = true", b)
		}
	}
}

func TestBlocksDirtyLineWriteback(t *testing.T) {
	const line = 64
	s := shadow.NewBlocks(4*line, line)
	// Cache block 0, dirty only line 3.
	s.Resident(0)
	ours := bytes.Repeat([]byte{0x55}, line)
	s.Write(0, 3*line, ours)
	// Meanwhile DRAM line 1 changes under us (another core's writeback).
	newer := bytes.Repeat([]byte{0xBB}, line)
	s.WriteDRAM(0, line, newer)

	if moved := s.Writeback([]shadow.Run{{Start: 0, Count: 4}}); moved != 1 {
		t.Fatalf("writeback moved %d lines, want 1", moved)
	}
	dram := s.DRAM(0)
	if !bytes.Equal(dram[line:2*line], newer) {
		t.Fatal("clean line was clobbered with stale cached data")
	}
	if !bytes.Equal(dram[3*line:4*line], ours) {
		t.Fatal("dirty line did not reach DRAM")
	}
	s.Invalidate([]shadow.Run{{Start: 0, Count: 1}})
	if moved := s.Writeback([]shadow.Run{{Start: 0, Count: 4}}); moved != 0 {
		t.Fatal("invalidated block still had dirty lines")
	}
}

// liveFS returns a ramfs client: a real fsapi.Client for exercising the
// model's verification against a live tree.
func liveFS(t *testing.T) fsapi.Client {
	t.Helper()
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	return ramfs.New(machine).NewClient(0)
}

func mkFile(t *testing.T, fs fsapi.Client, path string, data []byte) {
	t.Helper()
	fd, err := fs.Open(path, fsapi.OCreate|fsapi.OWrOnly|fsapi.OTrunc, fsapi.Mode644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := fs.Write(fd, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

// run applies ops to the live file system and the model, failing the test
// at the first answer they disagree on.
func run(t *testing.T, fs fsapi.Client, m *shadow.Model, ops ...shadow.Op) {
	t.Helper()
	for _, op := range ops {
		if err := shadow.Check(op, shadow.Do(fs, op), m.Step(op)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModelVerifyMatchesAndDiverges(t *testing.T) {
	fs := liveFS(t)
	m := shadow.NewModel("/d")
	if err := fs.Mkdir("/d", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	create := shadow.Op{Kind: shadow.OpCreate, Path: "/d/a", Size: 5, Seed: 1}
	run(t, fs, m, create, shadow.Op{Kind: shadow.OpMkdir, Path: "/d/sub"})
	if err := m.Verify(fs); err != nil {
		t.Fatalf("verify of matching tree: %v", err)
	}

	// An entry the shadow does not know about must be flagged.
	mkFile(t, fs, "/d/stray", []byte("x"))
	if err := m.Verify(fs); err == nil {
		t.Fatal("verify missed a stray entry")
	}
	if err := fs.Unlink("/d/stray"); err != nil {
		t.Fatal(err)
	}

	// Content divergence at equal size must be flagged.
	data := create.Data()
	data[4] ^= 0xff
	mkFile(t, fs, "/d/a", data)
	if err := m.Verify(fs); err == nil {
		t.Fatal("verify missed a content divergence")
	}
	// Size divergence must be flagged.
	mkFile(t, fs, "/d/a", append(create.Data(), create.Data()...))
	if err := m.Verify(fs); err == nil {
		t.Fatal("verify missed a size divergence")
	}
	mkFile(t, fs, "/d/a", create.Data())

	// Namespace ops keep the two worlds in sync.
	run(t, fs, m, shadow.Op{Kind: shadow.OpRename, Path: "/d/a", Path2: "/d/b"}, shadow.Op{Kind: shadow.OpRmdir, Path: "/d/sub"})
	if err := m.Verify(fs); err != nil {
		t.Fatalf("verify after rename+rmdir: %v", err)
	}
}

func TestModelMemoryLossToleranceAndReconcile(t *testing.T) {
	fs := liveFS(t)
	m := shadow.NewModel("/d")
	m.DirectAccess = true
	if err := fs.Mkdir("/d", fsapi.MkdirOpt{}); err != nil {
		t.Fatal(err)
	}
	create := shadow.Op{Kind: shadow.OpCreate, Path: "/d/f", Size: 8, Seed: 2}
	run(t, fs, m, create)
	m.NoteHome("/d/f", 0)

	// Checkpoint makes the current contents durable; later writes are at
	// risk again.
	m.NoteCheckpoint(0)
	if lost := m.CrashLostMemory(0); len(lost) != 0 {
		t.Fatalf("checkpointed file reported at risk: %v", lost)
	}
	run(t, fs, m, shadow.Op{Kind: shadow.OpOverwrite, Path: "/d/f", Size: 8, Seed: 3})

	lost := m.CrashLostMemory(0)
	if len(lost) != 1 || lost[0] != "/d/f" {
		t.Fatalf("at-risk set = %v, want [/d/f]", lost)
	}

	// The "recovered" live file lost the post-checkpoint bytes (same size,
	// different contents): a suspect file's contents are tolerated...
	mkFile(t, fs, "/d/f", create.Data())
	if err := m.Verify(fs); err != nil {
		t.Fatalf("verify should tolerate lost contents on a suspect file: %v", err)
	}
	// ...but a size change is a real divergence, even while suspect.
	mkFile(t, fs, "/d/f", []byte("tiny"))
	if err := m.Verify(fs); err == nil {
		t.Fatal("verify missed a size divergence on a suspect file")
	}
	if err := m.Reconcile(fs); err == nil {
		t.Fatal("reconcile accepted a size divergence")
	}
	mkFile(t, fs, "/d/f", create.Data())

	// Reconcile adopts the recovered contents as the new reference, and the
	// file's contents are checked again.
	if err := m.Reconcile(fs); err != nil {
		t.Fatal(err)
	}
	if got := m.Step(shadow.Op{Kind: shadow.OpRead, Path: "/d/f"}); !bytes.Equal(got.Data, create.Data()) {
		t.Fatalf("reconcile adopted %q", got.Data)
	}
	if err := m.Verify(fs); err != nil {
		t.Fatalf("verify after reconcile: %v", err)
	}
	mkFile(t, fs, "/d/f", []byte("VOLATILE"))
	if err := m.Verify(fs); err == nil {
		t.Fatal("verify skipped the contents of a reconciled file")
	}
	mkFile(t, fs, "/d/f", create.Data())

	// A crash of a different server leaves the file alone.
	m.Step(shadow.Op{Kind: shadow.OpOverwrite, Path: "/d/f", Size: 1, Seed: 4})
	if lost := m.CrashLostMemory(3); len(lost) != 0 {
		t.Fatalf("crash of another server marked %v", lost)
	}
}
