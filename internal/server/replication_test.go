package server

import (
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/wal"
)

// TestReplicationWireSizes pins what the replication plane puts on the wire:
// a ship is its repl.Msg and nothing else, so a one-record ship is at most 64
// bytes, and the follower's ack is the 17-byte repl.Ack. A tap between the
// primary and its follower forwards each ship and its answer and records
// their sizes; the primary's ReplBytes counts both.
func TestReplicationWireSizes(t *testing.T) {
	srvs, h := newSyncPair(t, ncc.NewDRAM(64, 512))
	primary, follower := srvs[0], srvs[1]
	t.Cleanup(primary.Stop)
	t.Cleanup(follower.Stop)
	network := h.net
	fep, _ := follower.ReplEndpointID()

	type exchange struct {
		kind      uint16
		ship, ack int
	}
	seen := make(chan exchange, 2) // one per ship the test causes
	tap := network.NewEndpoint(2)
	t.Cleanup(tap.Inbox.Close)
	go func() {
		for {
			env, ok := tap.Inbox.PopWait()
			if !ok {
				return
			}
			x := exchange{kind: env.Kind, ship: len(env.Payload)}
			answer, err := network.RPC(tap, fep, env.Kind, env.Payload, env.ArriveAt)
			if err != nil {
				return
			}
			x.ack = len(answer.Payload)
			network.Reply(tap, env, answer.Kind, answer.Payload, answer.ArriveAt)
			seen <- x
		}
	}()
	primary.SetReplTarget(&ReplTarget{ID: 1, EP: tap.ID})
	next := func(what string) exchange {
		t.Helper()
		select {
		case x := <-seen:
			if x.kind != proto.KindReplShip {
				t.Fatalf("%s shipped as kind %d, want %d", what, x.kind, proto.KindReplShip)
			}
			return x
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no ship", what)
			return exchange{}
		}
	}

	// The first ship rebases the new follower from a snapshot.
	created := h.callOK(&proto.Request{Op: proto.OpCreateCoalesced, Dir: proto.RootInode, Name: "f",
		Mode: fsapi.Mode644, Ftype: fsapi.TypeRegular})
	if x := next("the rebase"); x.ack != 17 {
		t.Errorf("the rebase's ack is %d bytes, want 17", x.ack)
	}
	// A link stages one record: its link count.
	before := primary.Stats().ReplBytes
	h.callOK(&proto.Request{Op: proto.OpLinkInode, Target: created.Ino})
	x := next("a one-record batch")
	if x.ship > 64 {
		t.Errorf("a one-record ship is %d bytes, want at most 64", x.ship)
	}
	if x.ack != 17 {
		t.Errorf("its ack is %d bytes, want 17", x.ack)
	}
	if got := primary.Stats().ReplBytes - before; got != uint64(x.ship+x.ack) {
		t.Errorf("ReplBytes grew by %d for a %d-byte ship and a %d-byte ack", got, x.ship, x.ack)
	}
	t.Logf("a one-record ship is %d bytes, its ack %d", x.ship, x.ack)
}

// newSyncPair builds server 0, a sync-replicated primary logging to a WAL in
// memory, and server 1, its follower, on one network over dram, and starts
// both. The primary ships nowhere until the caller sets its target; h's
// client (id 7) talks to the primary. The caller stops the servers.
func newSyncPair(t *testing.T, dram *ncc.DRAM) (srvs [2]*Server, h *harness) {
	machine := sim.NewMachine(sim.TopologyForCores(3), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	parts := ncc.PartitionDRAM(dram, 2)
	log, err := wal.Open(wal.Config{Store: wal.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	for id := range srvs {
		cfg := Config{ID: id, Core: id, NumServers: 2, Machine: machine, Network: network, DRAM: dram,
			Partition: parts[id], CoLocated: true, Repl: repl.Sync}
		if id == 0 {
			cfg.Log = log
		}
		srvs[id] = New(cfg)
		srvs[id].Start()
	}
	h = &harness{t: t, srv: srvs[0], net: network, ep: network.NewClientEndpoint(2), machine: machine}
	return srvs, h
}
