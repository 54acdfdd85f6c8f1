package sim

import (
	"testing"
)

func TestTopologySockets(t *testing.T) {
	topo := Topology{NumCores: 40, NumSockets: 4}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := topo.CoresPerSocket(); got != 10 {
		t.Fatalf("CoresPerSocket = %d, want 10", got)
	}
	if topo.Socket(0) != 0 || topo.Socket(9) != 0 || topo.Socket(10) != 1 || topo.Socket(39) != 3 {
		t.Error("Socket mapping wrong")
	}
	if topo.Socket(40) != -1 || topo.Socket(-1) != -1 {
		t.Error("out-of-range cores should map to -1")
	}
}

func TestTopologyDistance(t *testing.T) {
	topo := Topology{NumCores: 40, NumSockets: 4}
	if topo.Distance(3, 3) != DistSameCore {
		t.Error("same core distance wrong")
	}
	if topo.Distance(0, 9) != DistSameSocket {
		t.Error("same socket distance wrong")
	}
	if topo.Distance(0, 10) != DistCrossSocket {
		t.Error("cross socket distance wrong")
	}
}

func TestTopologyForCores(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 11, 20, 40} {
		topo := TopologyForCores(n)
		if err := topo.Validate(); err != nil {
			t.Errorf("TopologyForCores(%d) invalid: %v", n, err)
		}
		if topo.NumCores != n {
			t.Errorf("TopologyForCores(%d).NumCores = %d", n, topo.NumCores)
		}
	}
	if TopologyForCores(0).NumCores != 1 {
		t.Error("TopologyForCores(0) should clamp to 1 core")
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{{0, 1}, {1, 0}, {2, 3}}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", topo)
		}
	}
}

func TestCoresOnSocket(t *testing.T) {
	topo := Topology{NumCores: 12, NumSockets: 3}
	cores := topo.CoresOnSocket(1)
	if len(cores) != 4 {
		t.Fatalf("socket 1 has %d cores, want 4", len(cores))
	}
	for _, c := range cores {
		if topo.Socket(c) != 1 {
			t.Errorf("core %d not on socket 1", c)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("new clock should read 0")
	}
	c.Advance(100)
	c.AdvanceTo(50) // must not go backwards
	if c.Now() != 100 {
		t.Fatalf("clock = %d, want 100", c.Now())
	}
	c.AdvanceTo(200)
	if c.Now() != 200 {
		t.Fatalf("clock = %d, want 200", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMachineExecute(t *testing.T) {
	m := NewMachine(TopologyForCores(2), DefaultCostModel())
	if end := m.Execute(0, 0, 100); end != 100 {
		t.Fatalf("execute end = %d, want 100", end)
	}
	if end := m.Execute(0, 500, 100); end != 600 {
		t.Fatalf("execute end = %d, want 600", end)
	}
	// Out-of-range cores are tolerated.
	if end := m.Execute(99, 10, 10); end != 20 {
		t.Fatalf("out-of-range execute end = %d, want 20", end)
	}
}

func TestCostModelLatency(t *testing.T) {
	c := DefaultCostModel()
	same := c.MsgLatency(DistSameCore, 0)
	near := c.MsgLatency(DistSameSocket, 0)
	far := c.MsgLatency(DistCrossSocket, 0)
	if !(same < near && near < far) {
		t.Fatalf("latencies not ordered: %d %d %d", same, near, far)
	}
	if c.MsgLatency(DistSameCore, 1024) <= same {
		t.Error("payload size should add latency")
	}
	if c.Seconds(Cycles(c.ClockHz)) != 1.0 {
		t.Error("Seconds conversion wrong")
	}
}

func TestLineCost(t *testing.T) {
	if LineCost(10, 0) != 0 {
		t.Error("zero bytes should cost nothing")
	}
	if LineCost(10, 1) != 10 || LineCost(10, 64) != 10 || LineCost(10, 65) != 20 {
		t.Error("LineCost rounding wrong")
	}
}

func TestDistanceString(t *testing.T) {
	names := map[Distance]string{DistSameCore: "same-core", DistSameSocket: "same-socket", DistCrossSocket: "cross-socket", Distance(9): "unknown"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("Distance(%d).String() = %q", d, d.String())
		}
	}
}
