package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestDurabilityOverheadTable(t *testing.T) {
	points, err := durabilityOverhead(testScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Three workloads x (off, on).
	if len(points) != 6 {
		t.Fatalf("got %d rows, want 6: %+v", len(points), points)
	}
	for i, p := range points {
		on := strings.HasSuffix(p.Row, " wal on")
		if on != (i%2 == 1) || !on && !strings.HasSuffix(p.Row, " wal off") {
			t.Fatalf("row %d is %q", i, p.Row)
		}
		if on && (p.Records == 0 || p.Flushes == 0 || p.VsOff <= 0) || !on && p.Records != 0 {
			t.Errorf("%s: %d records, %d flushes, %.2f vs no-wal", p.Row, p.Records, p.Flushes, p.VsOff)
		}
	}
}

func TestRecoveryTimeTable(t *testing.T) {
	points, err := recoveryTime(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Row != "log replay only" || points[1].Row != "checkpoint + tail" {
		t.Fatalf("recovery rows %+v", points)
	}
	replay, ckpt := points[0], points[1]
	if replay.CkptBytes != 0 || ckpt.CkptBytes == 0 || ckpt.Records >= replay.Records || replay.MaxRecoveryMs <= 0 {
		t.Fatalf("a checkpoint should trade snapshot bytes for a shorter replay: %+v", points)
	}
}

func TestCrashWorkloadCheckTable(t *testing.T) {
	points, err := crashWorkload(testScale, 2)
	if err != nil {
		t.Fatalf("crash workload did not verify: %v", err)
	}
	if len(points) != 1 || points[0].Ops == 0 || points[0].Records == 0 {
		t.Fatalf("crash workload row %+v", points)
	}
}

func TestHareFactoryExposesFaultsWithDurability(t *testing.T) {
	opts := DefaultHare(2)
	opts.Durability = core.Durability{Enabled: true}
	b, err := HareFactory(opts)(workload.CrashRecovery{}.Placement())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Faults == nil {
		t.Fatal("durable backend exposes no fault injector")
	}
	if !strings.Contains(b.Name, "+wal") {
		t.Fatalf("durable backend name %q not marked", b.Name)
	}
	r, err := RunWorkload(HareFactory(opts), workload.CrashRecovery{FilesPerRound: 3}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops <= 0 {
		t.Fatalf("degenerate crash workload result: %+v", r)
	}

	plain, err := HareFactory(DefaultHare(2))(workload.Creates{}.Placement())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Faults != nil {
		t.Fatal("non-durable backend should not expose fault injection")
	}
}
