package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fsapi"
)

// TestParallelUnawaitedReplyLeavesLaneIdle pins the rule that only a held
// requester is resumed by its reply (DESIGN.md §13, "Who owns a lane"). A
// bare client's sequential Read with direct access off leaves a readahead in
// flight when the call returns, and the call parks the client's lane. The
// readahead's reply, which nobody awaits, used to resume that lane at its
// arrival: a lane no goroutine drives, holding the floor for good, so every
// gated server behind it — and client B's stats — waited forever.
func TestParallelUnawaitedReplyLeavesLaneIdle(t *testing.T) {
	tech := AllTechniques()
	tech.DirectAccess = false
	sys := newDurableSystem(t, 2, 2, Durability{}, tech)
	writeFile(t, sys.NewClient(0), "/f", bytes.Repeat([]byte("readahead"), 64<<10/9))
	if err := sys.SetParallel(true); err != nil {
		t.Fatal(err)
	}

	a := sys.NewClient(0)
	fd, err := a.Open("/f", fsapi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(fd, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Readaheads == 0 {
		t.Fatal("the read issued no readahead: the probe tests nothing")
	}

	done := make(chan error, 1)
	go func() {
		b := sys.NewClient(1)
		for i := 0; i < 200; i++ {
			if _, err := b.Stat("/f"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("client B wedged behind client A's idle lane:\n%s", sys.Network().Gate())
	}
}
