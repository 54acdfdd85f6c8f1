package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestDurabilityOverheadTable(t *testing.T) {
	tbl, err := DurabilityOverhead(testScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Three workloads x (off, on).
	if len(tbl.Rows) != 6 {
		t.Fatalf("got %d rows, want 6:\n%s", len(tbl.Rows), tbl.Render())
	}
	out := tbl.Render()
	if !strings.Contains(out, "wal off") || !strings.Contains(out, "wal on") {
		t.Fatalf("rows missing:\n%s", out)
	}
}

func TestRecoveryTimeTable(t *testing.T) {
	tbl, err := RecoveryTime(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(tbl.Rows), tbl.Render())
	}
	out := tbl.Render()
	if !strings.Contains(out, "log replay only") || !strings.Contains(out, "checkpoint + tail") {
		t.Fatalf("modes missing:\n%s", out)
	}
}

func TestCrashWorkloadCheckTable(t *testing.T) {
	tbl, err := CrashWorkloadCheck(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0][len(tbl.Rows[0])-1] != "ok" {
		t.Fatalf("crash workload did not verify:\n%s", tbl.Render())
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
