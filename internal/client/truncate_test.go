package client_test

// POSIX ftruncate semantics pinned by the chaos harness's findings
// (DESIGN.md §10): a growing truncate exposes a readable zero-filled tail,
// a shrink re-exposes zeros on a later grow, and a grow the partition
// cannot back fails cleanly without moving the size.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sched"
)

func TestTruncateGrowShrinkExposesZeros(t *testing.T) {
	for _, direct := range []bool{true, false} {
		tech := core.AllTechniques()
		tech.DirectAccess = direct
		sys := newSystem(t, tech)
		cli := sys.NewClient(0)

		payload := bytes.Repeat([]byte{0xAB}, 3000)
		writeFile(t, cli, "/t.bin", payload)

		fd, err := cli.Open("/t.bin", fsapi.ORdWr, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Grow across a block boundary: tail must read as zeros.
		if err := cli.Ftruncate(fd, 6000); err != nil {
			t.Fatal(err)
		}
		// Shrink into the first block, then grow again: the shrunk-away
		// 0xAB bytes must not resurface.
		if err := cli.Ftruncate(fd, 1000); err != nil {
			t.Fatal(err)
		}
		if err := cli.Ftruncate(fd, 5000); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(fd); err != nil {
			t.Fatal(err)
		}

		want := append(append([]byte{}, payload[:1000]...), make([]byte, 4000)...)
		got := readAllPath(t, cli, "/t.bin")
		if !bytes.Equal(got, want) {
			t.Fatalf("direct=%v: read %d bytes, first diff at %d", direct, len(got), firstDiff(got, want))
		}
		// And from another core (no warm private cache).
		got = readAllPath(t, sys.NewClient(2), "/t.bin")
		if !bytes.Equal(got, want) {
			t.Fatalf("direct=%v cross-core: read %d bytes, first diff at %d", direct, len(got), firstDiff(got, want))
		}
	}
}

func TestTruncateGrowENOSPCLeavesSizeUntouched(t *testing.T) {
	// A one-block-per-server cache: the grow cannot be backed and must
	// fail without moving the file size (a failed grow that half-applied
	// would stat at the new size with an unreadable, unlogged tail).
	sys, err := core.New(core.Config{
		Cores:            2,
		Servers:          2,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 2 * 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	cli := sys.NewClient(0)

	writeFile(t, cli, "/small", []byte("fits in one block"))
	fd, err := cli.Open("/small", fsapi.OWrOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Ftruncate(fd, 64*4096); !fsapi.IsErrno(err, fsapi.ENOSPC) {
		t.Fatalf("grow past the partition: %v, want ENOSPC", err)
	}
	cli.Close(fd)
	st, err := cli.Stat("/small")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len("fits in one block")) {
		t.Fatalf("failed grow moved the size to %d", st.Size)
	}
	if got := readAllPath(t, cli, "/small"); string(got) != "fits in one block" {
		t.Fatalf("contents after failed grow: %q", got)
	}
}

// TestFailedGrowReturnsItsBlocks: a grow the partition cannot back takes
// nothing from it. The blocks it got before running out go back, so a file
// that fits in what is left can still be written.
func TestFailedGrowReturnsItsBlocks(t *testing.T) {
	const bs = 4096
	sys, err := core.New(core.Config{
		Cores:            1,
		Servers:          1,
		Timeshare:        true,
		Techniques:       core.AllTechniques(),
		Placement:        sched.PolicyRoundRobin,
		BufferCacheBytes: 8 * bs,
		BlockSize:        bs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	cli := sys.NewClient(0)

	writeFile(t, cli, "/a", []byte("nine byte"))
	fd, err := cli.Open("/a", fsapi.OWrOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Ftruncate(fd, 64*bs); !fsapi.IsErrno(err, fsapi.ENOSPC) {
		t.Fatalf("grow past the partition: %v, want ENOSPC", err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}
	if st, err := cli.Stat("/a"); err != nil || st.Size != 9 {
		t.Fatalf("stat after the failed grow: %+v, %v; want size 9", st, err)
	}
	two := bytes.Repeat([]byte{0x5A}, 2*bs)
	writeFile(t, cli, "/b", two)
	if got := readAllPath(t, cli, "/b"); !bytes.Equal(got, two) {
		t.Fatalf("read back %d bytes of /b, first diff at %d", len(got), firstDiff(got, two))
	}
}

// readAllPath reads a whole file, looping on partial reads.
func readAllPath(t *testing.T, fs fsapi.Client, path string) []byte {
	t.Helper()
	st, err := fs.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	fd, err := fs.Open(path, fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer fs.Close(fd)
	buf := make([]byte, st.Size+1)
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
	return buf[:total]
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
