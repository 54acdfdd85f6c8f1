package bench

import (
	"testing"

	"repro/internal/repl"
)

// TestFailoverFigureSmoke runs one tiny failover sweep and pins the
// acceptance properties: replication ships a non-zero message stream, the
// sync follower shows zero lag after a quiescent run, promotion loses no
// acked records, and — the point of the whole subsystem — the promotion
// stall beats the WAL-replay recovery it replaces (the committed
// BENCH_failover.json holds the real numbers at the standard scale).
//
// Virtual-time audit: replay and promotion are measured on identical twin
// deployments that ran the identical workload, so the comparison is exact,
// not schedule-noisy; LostRecords and lag are schedule-independent counters.
func TestFailoverFigureSmoke(t *testing.T) {
	points, err := failoverPoints(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2 (off/sync)", len(points))
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

	sync := byMode[repl.Sync.String()]
	if sync.ReplMsgs == 0 || sync.ReplBytes == 0 {
		t.Fatal("sync: no replication traffic; the shipper never ran")
	}
	if sync.PromoteMs <= 0 {
		t.Fatal("sync: promotion measured zero stall")
	}
	if sync.PromoteMs >= sync.ReplayMs {
		t.Fatalf("sync: promotion stalled %.4f ms vs %.4f ms replay; the replica buys nothing",
			sync.PromoteMs, sync.ReplayMs)
	}
	if sync.Throughput() <= 0 || sync.VsOff <= 0 {
		t.Fatalf("sync: missing throughput: %.1f ops/s (%.2f vs off)", sync.Throughput(), sync.VsOff)
	}
	if sync.MaxLag != 0 {
		t.Fatalf("sync follower lagged %d records after a quiescent run", sync.MaxLag)
	}
	if sync.LostRecords != 0 {
		t.Fatalf("sync promotion lost %d acked records", sync.LostRecords)
	}
}
