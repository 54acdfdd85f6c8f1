package core

import (
	"fmt"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Tests of the durable commit path with replication on (DESIGN.md §6, §12):
// the ship to the follower overlaps the local flush, and the reply waits for
// the later of the two.

// TestSyncShipOverlapsFlush times one mkdir — a single coalesced-create RPC
// that stages two records — for a serial client under three deployments
// (log off, log only, log + sync replication) and two cost models: one where
// the ship's round trip is shorter than the flush, one where a distant
// follower makes it longer. The reply is never earlier than the flush end
// nor than the processed ack, and no later than the later of them.
func TestSyncShipOverlapsFlush(t *testing.T) {
	mkdirLatency := func(cost sim.CostModel, durable bool, mode repl.Mode) sim.Cycles {
		cfg := Config{
			Cores: 2, Servers: 2, Timeshare: true,
			Techniques: AllTechniques(), Placement: sched.PolicyRoundRobin,
			BufferCacheBytes: 8 << 20, BlockSize: 4096, CostModel: &cost,
			Durability:  Durability{Enabled: durable},
			Replication: repl.Config{Mode: mode},
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		defer sys.Stop()
		cli := sys.NewClient(0)
		// The first ship to a follower carries a rebase snapshot; time a
		// steady-state one.
		for i := 0; i < 3; i++ {
			if err := cli.Mkdir(fmt.Sprintf("/warm%d", i), fsapi.MkdirOpt{}); err != nil {
				t.Fatal(err)
			}
		}
		start := cli.Clock()
		if err := cli.Mkdir("/probe", fsapi.MkdirOpt{}); err != nil {
			t.Fatal(err)
		}
		return cli.Clock() - start
	}

	// Size-independent costs, so the ship's timeline can be written down.
	near := sim.DefaultCostModel()
	near.MsgPerByte, near.WalPerLine = 0, 0
	far := near
	far.MsgLatencyNear = 6000

	for _, tc := range []struct {
		name     string
		cost     sim.CostModel
		ackBound bool
	}{
		{"round trip shorter than the flush", near, false},
		{"distant follower", far, true},
	} {
		c := tc.cost
		// Server 0 (core 0) ships to server 1 (core 1, same socket): send,
		// transit, the follower's receive + two-record ingest + ack send,
		// transit, receive.
		shipRTT := c.MsgSend + c.MsgLatencyNear + (c.MsgRecv + 2*c.WalReplayPerRec + c.MsgSend) + c.MsgLatencyNear + c.MsgRecv
		if (shipRTT > c.WalFlush) != tc.ackBound {
			t.Fatalf("%s: ship round trip %d against flush %d does not set up the case", tc.name, shipRTT, c.WalFlush)
		}
		off := mkdirLatency(c, false, repl.Off)
		logged := mkdirLatency(c, true, repl.Off)
		synced := mkdirLatency(c, true, repl.Sync)

		if logged != off+c.WalFlush {
			t.Errorf("%s: log-only mkdir %d cycles, want %d (the log-off %d plus one flush)", tc.name, logged, off+c.WalFlush, off)
		}
		if synced < logged {
			t.Errorf("%s: sync reply after %d cycles is earlier than the local flush end (%d)", tc.name, synced, logged)
		}
		if synced < off+shipRTT {
			t.Errorf("%s: sync reply after %d cycles is earlier than the processed ack (%d)", tc.name, synced, off+shipRTT)
		}
		if want := off + max(c.WalFlush, shipRTT); synced != want {
			t.Errorf("%s: sync mkdir %d cycles, want %d: flush (%d) and ship (%d) overlap, the reply waits for the later", tc.name, synced, want, c.WalFlush, shipRTT)
		}
	}
}

// TestReplyWaitsForFlushAndAck checks the safety side on every durable
// request of a mixed run, from its trace: the request's wal span ends at the
// local flush end, its repl span at the processing of the follower's ack,
// and the client has the reply only after both — by at least the reply's
// send, transit and receive. The ship starts before the flush ends.
func TestReplyWaitsForFlushAndAck(t *testing.T) {
	cfg := tracedConfig(4, 4)
	cfg.Durability = Durability{Enabled: true}
	cfg.Replication = repl.Config{Mode: repl.Sync}
	sys := newTracedSystem(t, cfg)
	cli := sys.NewClient(0)
	populate(t, cli)

	cost := sim.DefaultCostModel()
	replyLeg := cost.MsgSend + cost.MinMsgLatency() + cost.MsgRecv
	spans := sys.Tracer().Spans()
	idx := spanIndex(spans)
	flushEnd := make(map[uint64]sim.Cycles) // by parent span
	var wals, ships int
	for _, s := range spans {
		if s.Kind != trace.KindWAL && s.Kind != trace.KindRepl {
			continue
		}
		parent, ok := idx[s.Parent]
		if !ok {
			t.Fatalf("%v span %q has no parent span", s.Kind, s.Name)
		}
		if parent.End < s.End+replyLeg {
			t.Errorf("%v span %q ends at %d but the client had the reply at %d, less than a reply leg (%d) later",
				s.Kind, s.Name, s.End, parent.End, replyLeg)
		}
		if s.Kind == trace.KindWAL {
			wals++
			flushEnd[s.Parent] = s.End
			if s.End-s.Start != cost.WalFlush {
				t.Errorf("wal span %q lasts %d cycles, want one flush (%d)", s.Name, s.End-s.Start, cost.WalFlush)
			}
		}
	}
	for _, s := range spans {
		if s.Kind != trace.KindRepl {
			continue
		}
		ships++
		if end, ok := flushEnd[s.Parent]; !ok || s.Start >= end {
			t.Errorf("ship span %q starts at %d, not before its request's flush end (%d)", s.Name, s.Start, end)
		}
	}
	if wals == 0 || ships == 0 {
		t.Fatalf("trace holds %d wal and %d repl spans; the run should have produced both", wals, ships)
	}
}
