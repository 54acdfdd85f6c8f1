package hare_test

import (
	"bytes"
	"testing"

	hare "repro"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := hare.DefaultConfig()
	if cfg.Cores != 40 || cfg.Servers != 40 || !cfg.Timeshare {
		t.Fatalf("default config %+v is not the paper's 40-core timeshare setup", cfg)
	}
	tech := hare.AllTechniques()
	if !tech.DirectoryDistribution || !tech.DirectoryBroadcast || !tech.DirectAccess ||
		!tech.DirectoryCache || !tech.CreationAffinity {
		t.Fatalf("AllTechniques left something off: %+v", tech)
	}
}

func TestStartClientRoundTrip(t *testing.T) {
	cfg := hare.DefaultConfig()
	cfg.Cores = 4
	cfg.Servers = 4
	sys, err := hare.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	cli := sys.NewClient(0)
	if err := cli.Mkdir("/data", hare.MkdirOpt{Distributed: true}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("public api"), 1200) // spans blocks
	fd, err := cli.Open("/data/file", hare.OCreate|hare.OWrOnly, hare.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cli.Write(fd, payload); err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := cli.Close(fd); err != nil {
		t.Fatal(err)
	}

	// Close-to-open consistency across cores through the public surface.
	other := sys.NewClient(2)
	rfd, err := other.Open("/data/file", hare.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	n, err := other.Read(rfd, got)
	if err != nil || n != len(payload) || !bytes.Equal(got[:n], payload) {
		t.Fatalf("read back %d bytes, err %v", n, err)
	}
	if err := other.Close(rfd); err != nil {
		t.Fatal(err)
	}

	if _, err := cli.Open("/missing", hare.ORdOnly, 0); !hare.IsErrno(err, hare.ENOENT) {
		t.Fatalf("missing file: %v", err)
	}
	if cli.Clock() == 0 {
		t.Fatal("client clock did not advance")
	}
	if sys.Seconds(hare.Cycles(2_400_000_000)) < 0.9 {
		t.Fatal("Seconds conversion broken")
	}
}

func TestCrashRecoverThroughPublicAPI(t *testing.T) {
	cfg := hare.DefaultConfig()
	cfg.Cores = 2
	cfg.Servers = 2
	cfg.Durability = hare.Durability{Enabled: true}
	sys, err := hare.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()

	cli := sys.NewClient(0)
	fd, err := cli.Open("/durable", hare.OCreate|hare.OWrOnly, hare.Mode644)
	if err != nil {
		t.Fatal(err)
	}
	cli.Write(fd, []byte("survives"))
	cli.Close(fd)

	if err := sys.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.NumServers(); i++ {
		if err := sys.Crash(i); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		st, err := sys.Recover(i)
		if err != nil {
			t.Fatalf("recover %d: %v", i, err)
		}
		var _ hare.RecoveryStats = st
	}
	cli2 := sys.NewClient(1)
	rfd, err := cli2.Open("/durable", hare.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := cli2.Read(rfd, buf)
	if err != nil || string(buf[:n]) != "survives" {
		t.Fatalf("read after recovery: %q, %v", buf[:n], err)
	}
	cli2.Close(rfd)

	var stats []hare.WalStats = sys.WalStats()
	var recs uint64
	for _, s := range stats {
		recs += s.Records
	}
	if recs == 0 {
		t.Fatal("no WAL records counted through public stats")
	}
}

func TestFaultAPIRejectedWithoutDurability(t *testing.T) {
	cfg := hare.DefaultConfig()
	cfg.Cores = 2
	cfg.Servers = 2
	sys, err := hare.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if err := sys.Crash(0); err == nil {
		t.Fatal("Crash accepted with durability disabled")
	}
}
