package core

import (
	"testing"
	"time"

	"repro/internal/fsapi"
)

// TestBlockedPipeReadOutlivesCrash: a bare client blocked in a pipe Read when
// the pipe's server crashes returns once the server recovers, under both
// engines. The read had parked at the server; the crash hands it to the
// recovered server, which serves it again: pipes are volatile, so it fails
// with ENOENT instead of waiting forever. Under the parallel engine the reply
// also resumes the client's lane, which the park idled. The watchdog prints
// the gate's stall report.
func TestBlockedPipeReadOutlivesCrash(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "serialized"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			sys := newDurableSystem(t, 2, 2, Durability{}, AllTechniques())
			ctl := sys.NewClient(0)
			if err := sys.SetParallel(parallel); err != nil {
				t.Fatal(err)
			}
			cli := sys.NewClient(0)
			r, _, err := cli.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			before := sys.ServerStats()
			done := make(chan error, 1)
			go func() {
				_, err := cli.Read(r, make([]byte, 8))
				done <- err
			}()

			victim := -1
			for deadline := time.Now().Add(5 * time.Second); victim < 0; time.Sleep(time.Millisecond) {
				for i, st := range sys.ServerStats() {
					if st.Parked > before[i].Parked {
						victim = i
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("the read never parked at a server:\n%s", sys.Network().Gate())
				}
			}
			if err := sys.Crash(ctl, victim); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Recover(ctl, victim); err != nil {
				t.Fatal(err)
			}

			select {
			case err := <-done:
				if !fsapi.IsErrno(err, fsapi.ENOENT) {
					t.Fatalf("the read of a pipe its server lost returned %v, want ENOENT", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("the read blocked across the crash never returned:\n%s", sys.Network().Gate())
			}
		})
	}
}
