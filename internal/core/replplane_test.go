package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/wal"
)

// TestPromotionFromRecycledBuffersEqualsReplay is the replication plane's
// recycling checked where it matters: a replica built from batches that were
// decoded in place, in a payload whose buffer the ack then overwrites and the
// next ship reuses, must promote to exactly the state a replay of the
// primary's own log produces. A fault plan delays half of the ships, and
// every round first hands the follower's plane a rebase of another primary's
// replica from a large snapshot, whose answer nobody awaits: while the plane
// is busy with that, the round's next ship waits behind it, and the
// stranger's buffer goes back to the stranger with its ack, not to the
// plane.
func TestPromotionFromRecycledBuffersEqualsReplay(t *testing.T) {
	const victim, follower, stranger = 1, 2, 7
	big := wal.Checkpoint{Dirs: []wal.DirSnap{{Dir: proto.InodeID{Server: stranger, Local: 1}}}}
	for i := 0; i < 40_000; i++ {
		big.Inodes = append(big.Inodes, wal.InodeSnap{Local: uint64(2 + i), Nlink: 1, Blocks: []uint64{uint64(i)}})
		big.Dirs[0].Ents = append(big.Dirs[0].Ents, wal.DirEntSnap{Name: fmt.Sprintf("entry-%06d", i)})
	}
	rebase := (&repl.Msg{Primary: stranger, Snap: big.Marshal(), SnapLSN: 1}).AppendTo(nil)

	build := func() *System {
		sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
		ctl := sys.NewClient(0)
		sys.Network().SetFaultPlan(&msg.FaultPlan{Seed: 11, MaxDelay: 60_000, DelayPercent: 50})
		fep, _ := sys.servers[follower].ReplEndpointID()
		other := sys.network.NewEndpoint(0)
		cli := sys.NewClient(0)
		if err := cli.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 240; i++ {
			if i%40 == 0 {
				if _, err := sys.network.Send(other, fep, proto.KindReplShip, slices.Clone(rebase), 0, msg.NewQueue()); err != nil {
					t.Fatal(err)
				}
			}
			path := fmt.Sprintf("/d/file-%03d-0123456789abcdef", i)
			fd, err := cli.Open(path, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Write(fd, []byte(path)); err != nil {
				t.Fatal(err)
			}
			if err := cli.Close(fd); err != nil {
				t.Fatal(err)
			}
			switch i % 6 {
			case 3:
				if err := cli.Rename(path, path+".moved"); err != nil {
					t.Fatal(err)
				}
			case 5:
				if err := cli.Unlink(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		sys.Network().SetFaultPlan(nil)
		// The replica has caught up when the primary has heard so.
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := sys.ReplicaStats()[victim]
			if st.Durable == st.LastLSN {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the follower of server %d stays at LSN %d of %d", victim, st.Durable, st.LastLSN)
			}
			time.Sleep(time.Millisecond)
		}
		if err := sys.CrashLosingMemory(ctl, victim); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	promoted := build()
	promotedCtl := promoted.NewClient(0)
	rep, err := promoted.Failover(promotedCtl, victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallback || rep.LostRecords != 0 {
		t.Fatalf("promotion of a caught-up replica: fallback=%v, %d records lost", rep.Fallback, rep.LostRecords)
	}
	replayed := build()
	replayedCtl := replayed.NewClient(0)
	if _, err := replayed.Recover(replayedCtl, victim); err != nil {
		t.Fatal(err)
	}
	got, want := namespaceDump(t, promoted.NewClient(2), "/"), namespaceDump(t, replayed.NewClient(2), "/")
	if got != want {
		t.Fatalf("the promoted replica is not the replayed log:\npromoted:\n%s\nreplayed:\n%s", got, want)
	}
}

// TestReplicationPlaneAnswersWhatItCannotDecode pushes garbage at a real
// replication endpoint the way its two blocking callers reach it. A primary's
// request loop (ship, shipCheckpoint) and a failover (sealFollower) wait in
// Network.RPC, which has no timeout: a plane that drops what it cannot decode
// wedges the server, or the failover, for good. It answers instead, with
// what each caller already reads as "rebase" and as "no replica here".
func TestReplicationPlaneAnswersWhatItCannotDecode(t *testing.T) {
	const victim, follower = 1, 2
	sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
	ctl := sys.NewClient(0)
	_, names := seedFiles(t, sys, 12)
	fep, _ := sys.servers[follower].ReplEndpointID()
	from := sys.network.NewEndpoint(0)
	rpc := func(what string, kind uint16, payload []byte) []byte {
		t.Helper()
		answered := make(chan msg.Envelope, 1)
		go func() {
			if env, err := sys.network.RPC(from, fep, kind, payload, 0); err == nil {
				answered <- env
			}
		}()
		select {
		case env := <-answered:
			return env.Payload
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer; its sender would wait forever", what)
			return nil
		}
	}

	// Kinds the plane does not serve — request-plane requests, undecodable
	// or well-formed (a ping among them, and an op number no op has), a
	// reply, a callback, a kind no message has — get an empty answer.
	others := []struct {
		what    string
		kind    uint16
		payload []byte
	}{
		{"a request that does not decode", proto.KindRequest, []byte{0xde, 0xad, 0xbe, 0xef}},
		{"a ping", proto.KindRequest, (&proto.Request{Op: proto.OpPing}).Marshal()},
		{"a lookup", proto.KindRequest, (&proto.Request{Op: proto.OpLookup}).Marshal()},
		{"a request for no op", proto.KindRequest, (&proto.Request{Op: proto.NumOps}).Marshal()},
		{"a reply", proto.KindResponse, (&proto.Response{}).Marshal()},
		{"a callback", proto.KindCallback, (&proto.Invalidation{Name: "x"}).AppendTo(nil)},
		{"a kind no message has", 99, (&repl.Msg{Primary: victim}).AppendTo(nil)},
	}
	for _, o := range others {
		if got := rpc(o.what, o.kind, o.payload); len(got) != 0 {
			t.Errorf("%s: answered %d bytes, want an empty answer", o.what, len(got))
		}
	}
	// An empty answer is neither an ack nor a seal reply: a shipper that gets
	// one rebases, a failover replays.
	if _, err := repl.UnmarshalAck(nil); err == nil {
		t.Error("an empty answer decodes as an ack")
	}
	if err := repl.UnmarshalSealReplyInto(&repl.SealReply{}, nil); err == nil {
		t.Error("an empty answer decodes as a seal reply")
	}

	ship := func(what string, payload []byte) repl.Ack {
		t.Helper()
		ack, err := repl.UnmarshalAck(rpc(what, proto.KindReplShip, payload))
		if err != nil {
			t.Errorf("%s: answer is no ack: %v", what, err)
		}
		return ack
	}
	if ack := ship("a ship that does not decode", []byte("not a repl.Msg")); !ack.NeedSync || ack.Server != follower {
		t.Errorf("a ship that does not decode: ack %+v, want NeedSync from server %d", ack, follower)
	}
	// A well-formed ship from beyond the replica's horizon: an earlier ship
	// went missing, and only a rebase closes the gap. It applies nothing.
	horizon := sys.ReplicaStats()[victim].Durable
	future := repl.Msg{Primary: victim, Base: horizon + 100, Recs: wal.EncodeRecords([]wal.Record{
		{LSN: horizon + 100, Type: wal.RecInode, Ino: 999, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1}})}
	if ack := ship("a ship from the future", future.AppendTo(nil)); !ack.NeedSync || ack.Durable != horizon {
		t.Errorf("a ship from the future: ack %+v, want NeedSync at horizon %d", ack, horizon)
	}

	// A seal that does not decode, or one for a primary this follower holds
	// no replica of, gets an empty reply: the failover replays instead.
	for _, seal := range []struct {
		what    string
		payload []byte
	}{
		{"a seal that does not decode", []byte{1, 2, 3}},
		{"a seal for a primary with no replica", (&repl.Msg{Primary: follower}).AppendTo(nil)},
	} {
		var sr repl.SealReply
		if err := repl.UnmarshalSealReplyInto(&sr, rpc(seal.what, proto.KindReplSeal, seal.payload)); err != nil || sr.Durable != 0 || len(sr.Snap) != 0 {
			t.Errorf("%s: reply %+v, err %v, want an empty one", seal.what, sr, err)
		}
	}

	// None of it touched the replica the plane does hold.
	if err := sys.CrashLosingMemory(ctl, victim); err != nil {
		t.Fatal(err)
	}
	if rep, err := sys.Failover(ctl, victim); err != nil || rep.Fallback || rep.LostRecords != 0 {
		t.Fatalf("failover after the garbage: %+v, %v", rep, err)
	}
	verifyFiles(t, sys, names)
}
