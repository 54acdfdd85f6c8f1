package bench

import (
	"testing"

	"repro/internal/repl"
)

// TestFailoverFigureSmoke runs one tiny failover sweep and pins the
// acceptance properties: replication ships a non-zero message stream, the
// sync follower shows zero lag after a quiescent run, promotion loses no
// acked records under sync (and at most one window under async), and — the
// point of the whole subsystem — the promotion stall beats the WAL-replay
// recovery it replaces (the committed BENCH_failover.json holds the real
// numbers at the standard scale).
//
// Virtual-time audit: replay and promotion are measured on identical twin
// deployments that ran the identical workload, so the comparison is exact,
// not schedule-noisy; LostRecords and lag are schedule-independent counters.
func TestFailoverFigureSmoke(t *testing.T) {
	points, err := failoverPoints(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3 (off/sync/async)", len(points))
	}
	byMode := map[string]FailoverPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
	}

	off := byMode[repl.Off.String()]
	if off.ReplMsgs != 0 || off.ReplBytes != 0 {
		t.Fatalf("replication off still shipped: %d msgs, %d bytes", off.ReplMsgs, off.ReplBytes)
	}
	if off.ReplayMs <= 0 {
		t.Fatal("replay control measured zero recovery time")
	}

	for _, mode := range []repl.Mode{repl.Sync, repl.Async} {
		p := byMode[mode.String()]
		if p.ReplMsgs == 0 || p.ReplBytes == 0 {
			t.Fatalf("%s: no replication traffic; the shipper never ran", p.Mode)
		}
		if p.PromoteMs <= 0 {
			t.Fatalf("%s: promotion measured zero stall", p.Mode)
		}
		if p.PromoteMs >= p.ReplayMs {
			t.Fatalf("%s: promotion stalled %.4f ms vs %.4f ms replay; the replica buys nothing",
				p.Mode, p.PromoteMs, p.ReplayMs)
		}
		if p.Throughput() <= 0 || p.VsOff <= 0 {
			t.Fatalf("%s: missing throughput: %.1f ops/s (%.2f vs off)", p.Mode, p.Throughput(), p.VsOff)
		}
	}

	sync := byMode[repl.Sync.String()]
	if sync.MaxLag != 0 {
		t.Fatalf("sync follower lagged %d records after a quiescent run", sync.MaxLag)
	}
	if sync.LostRecords != 0 {
		t.Fatalf("sync promotion lost %d acked records", sync.LostRecords)
	}
	async := byMode[repl.Async.String()]
	if w := uint64(repl.DefaultWindow); async.LostRecords > w {
		t.Fatalf("async promotion lost %d acked records, window is %d", async.LostRecords, w)
	}
}
