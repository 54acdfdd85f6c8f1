package shadow_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/shadow"
)

// answerRows is the POSIX answer table: each row is an op and the errno
// POSIX gives it in the tree the rows before it built, with Hare's one
// deviation (a directory renamed onto a directory answers EEXIST even when
// the target is empty; DESIGN.md §10).
var answerRows = []struct {
	op   shadow.Op
	want fsapi.Errno
}{
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/d"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/d/x", Size: 100, Seed: 1}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/f", Size: 5000, Seed: 2}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/e"}, fsapi.OK},

	// Open misuse.
	{shadow.Op{Kind: shadow.OpRead, Path: "/t/missing"}, fsapi.ENOENT},
	{shadow.Op{Kind: shadow.OpOverwrite, Path: "/t/d", Size: 10, Seed: 3}, fsapi.EISDIR},
	{shadow.Op{Kind: shadow.OpRead, Path: "/t/f/x"}, fsapi.ENOTDIR},
	// Create misuse.
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/d", Size: 10, Seed: 4}, fsapi.EISDIR},
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/nodir/x", Size: 10, Seed: 5}, fsapi.ENOENT},
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/f/x", Size: 10, Seed: 6}, fsapi.ENOTDIR},
	// Mkdir misuse.
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/d"}, fsapi.EEXIST},
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/f"}, fsapi.EEXIST},
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/nodir/y"}, fsapi.ENOENT},
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/f/y"}, fsapi.ENOTDIR},
	// Rmdir misuse.
	{shadow.Op{Kind: shadow.OpRmdir, Path: "/t/d"}, fsapi.ENOTEMPTY},
	{shadow.Op{Kind: shadow.OpRmdir, Path: "/t/f"}, fsapi.ENOTDIR},
	{shadow.Op{Kind: shadow.OpRmdir, Path: "/t/missing"}, fsapi.ENOENT},
	// Unlink misuse.
	{shadow.Op{Kind: shadow.OpUnlink, Path: "/t/d"}, fsapi.EISDIR},
	{shadow.Op{Kind: shadow.OpUnlink, Path: "/t/missing"}, fsapi.ENOENT},
	// Readdir misuse.
	{shadow.Op{Kind: shadow.OpReadDir, Path: "/t/f"}, fsapi.ENOTDIR},
	{shadow.Op{Kind: shadow.OpReadDir, Path: "/t/missing"}, fsapi.ENOENT},

	// Rename onto a directory, onto a file, and into itself.
	{shadow.Op{Kind: shadow.OpRename, Path: "/t/f", Path2: "/t/d"}, fsapi.EISDIR},
	{shadow.Op{Kind: shadow.OpRename, Path: "/t/e", Path2: "/t/f"}, fsapi.ENOTDIR},
	{shadow.Op{Kind: shadow.OpRename, Path: "/t/e", Path2: "/t/d"}, fsapi.EEXIST},
	{shadow.Op{Kind: shadow.OpRename, Path: "/t/e", Path2: "/t/e/sub"}, fsapi.EINVAL},
	{shadow.Op{Kind: shadow.OpReadDir, Path: "/t"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpReadDir, Path: "/t/d"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpRead, Path: "/t/f"}, fsapi.OK},

	// A directory rename moves everything under it.
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/m"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/m/y", Size: 300, Seed: 7}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpMkdir, Path: "/t/m/n"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpCreate, Path: "/t/m/n/z", Size: 200, Seed: 8}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpRename, Path: "/t/m", Path2: "/t/m2"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpStatCheck, Path: "/t/m"}, fsapi.ENOENT},
	{shadow.Op{Kind: shadow.OpReadDir, Path: "/t/m2"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpRead, Path: "/t/m2/n/z"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpUnlink, Path: "/t/m2/y"}, fsapi.OK},
	{shadow.Op{Kind: shadow.OpRmdir, Path: "/t/m2"}, fsapi.ENOTEMPTY},
}

// TestPOSIXAnswers runs the answer table on Hare, under the serialized and
// the gated engine with the parent directory plain and distributed, and on
// ramfs: every answer must be the one Step gives, and Step's errno the
// table's.
func TestPOSIXAnswers(t *testing.T) {
	hare := func(parallel, dist bool) func(t *testing.T) (fsapi.Client, bool) {
		return func(t *testing.T) (fsapi.Client, bool) {
			sys, err := core.New(core.Config{
				Cores:            4,
				Servers:          4,
				Timeshare:        true,
				Techniques:       core.AllTechniques(),
				Placement:        sched.PolicyRoundRobin,
				BufferCacheBytes: 8 << 20,
				BlockSize:        4096,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.Start()
			t.Cleanup(sys.Stop)
			if err := sys.SetParallel(parallel); err != nil {
				t.Fatal(err)
			}
			return sys.NewClient(0), dist
		}
	}
	backends := []struct {
		name string
		fs   func(t *testing.T) (fsapi.Client, bool)
	}{
		{"hare/serialized/plain", hare(false, false)},
		{"hare/serialized/distributed", hare(false, true)},
		{"hare/gated/plain", hare(true, false)},
		{"hare/gated/distributed", hare(true, true)},
		{"ramfs", func(t *testing.T) (fsapi.Client, bool) { return liveFS(t), false }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			fs, dist := b.fs(t)
			if err := fs.Mkdir("/t", fsapi.MkdirOpt{Distributed: dist}); err != nil {
				t.Fatal(err)
			}
			m := shadow.NewModel("/t")
			for _, row := range answerRows {
				want := m.Step(row.op)
				if want.Err != row.want {
					t.Errorf("%s: model answered %s, POSIX %s", row.op, want, row.want)
				}
				if err := shadow.Check(row.op, shadow.Do(fs, row.op), want); err != nil {
					t.Error(err)
				}
			}
			if err := m.Verify(fs); err != nil {
				t.Error(err)
			}
		})
	}
}
