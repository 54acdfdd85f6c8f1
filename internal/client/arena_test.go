package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// TestEveryCallReturnsItsResponses: whatever a public call drew from the
// response arena — one reply, a broadcast's, a scatter's, a batch's
// sub-responses — is back when it returns, on
// success and on error, so nothing accumulates and nothing is read later.
func TestEveryCallReturnsItsResponses(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	settled := func(after string) {
		t.Helper()
		if used, kept := cli.RespsInUse(); used != 0 || kept > client.RespArenaCap {
			t.Fatalf("after %s: %d responses still in use, %d kept (cap %d)", after, used, kept, client.RespArenaCap)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cli.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}))
	settled("mkdir")
	var fds []fsapi.FD
	for i := 0; i < 20; i++ {
		fd, err := cli.Open(fmt.Sprintf("/d/f%02d", i), fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
		must(err)
		_, err = cli.Write(fd, bytes.Repeat([]byte{byte(i)}, 5000))
		must(err)
		fds = append(fds, fd)
	}
	settled("creates and writes")
	must(cli.Sync()) // a scatter over every server, batched per server
	settled("sync")
	if _, err := cli.ReadDir("/d"); err != nil { // a broadcast
		t.Fatal(err)
	}
	settled("readdir")
	if _, err := cli.Stat("/d/missing"); err == nil {
		t.Fatal("stat of a missing file succeeded")
	}
	settled("a failed stat")
	must(cli.Rename("/d/f00", "/d/g00"))
	settled("rename")
	must(cli.Close(fds[1]))
	must(cli.Unlink("/d/f01")) // a batch
	settled("close and unlink")
	child, err := cli.CloneForFork(0) // shares every descriptor: two RPCs each
	must(err)
	settled("fork")
	child.(*client.Client).CloseAll()
	if used, _ := child.(*client.Client).RespsInUse(); used != 0 {
		t.Fatalf("the child's CloseAll left %d responses in use", used)
	}
	cli.CloseAll() // a scatter
	settled("closeall")
}

// TestRecycledDescriptionShowsNothingOfItsPreviousFile: the open-file
// description a close recycles comes back to the next open with no size,
// offset, block map, dirty set, append flag, shared or pipe state left.
func TestRecycledDescriptionShowsNothingOfItsPreviousFile(t *testing.T) {
	sys := newSystem(t, core.AllTechniques())
	cli := sys.NewClient(0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("previous file "), 2000) // several blocks
	fd, err := cli.Open("/big", fsapi.OCreate|fsapi.OWrOnly|fsapi.OAppend, fsapi.Mode644)
	must(err)
	_, err = cli.Write(fd, big)
	must(err)
	must(cli.Close(fd)) // recycles a description with a map, an offset and O_APPEND

	// The next description is that one. A new file through it is empty, is
	// written at the offset asked for, and holds only what was written.
	fd, err = cli.Open("/small", fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
	must(err)
	if st, err := cli.Fstat(fd); err != nil || st.Size != 0 {
		t.Fatalf("a new file through a recycled description: size %d, %v", st.Size, err)
	}
	if n, err := cli.Read(fd, make([]byte, 16)); n != 0 || err != nil {
		t.Fatalf("read of the new empty file returned %d bytes, %v", n, err)
	}
	_, err = cli.Write(fd, []byte("abc"))
	must(err)
	_, err = cli.Write(fd, []byte("def")) // at offset 3: not appended at a stale size
	must(err)
	must(cli.Close(fd))

	// A pipe end's description is recycled into a regular file's.
	r, w, err := cli.Pipe()
	must(err)
	must(cli.Close(r))
	must(cli.Close(w))
	for _, want := range []struct {
		path string
		data []byte
	}{{"/small", []byte("abcdef")}, {"/big", big}} {
		fd, err := cli.Open(want.path, fsapi.ORdOnly, 0)
		must(err)
		got := make([]byte, len(want.data)+8)
		n, err := cli.Read(fd, got)
		must(err)
		if !bytes.Equal(got[:n], want.data) {
			t.Fatalf("%s holds %d bytes %.20q..., want %d bytes %.20q...", want.path, n, got[:n], len(want.data), want.data)
		}
		must(cli.Close(fd))
	}
}
