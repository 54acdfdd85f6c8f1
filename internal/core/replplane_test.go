package core

import (
	"fmt"
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
// decoded in place, in a request whose buffer the next message overwrites,
// must promote to exactly the state a replay of the primary's own log
// produces. Replication is asynchronous and a fault plan delays half of the
// ships, so batches overtake each other and wait in the follower's stash —
// the one place a batch outlives the message that brought it. For that they
// have to queue: every round first hands the follower's plane a rebase of
// another primary's replica from a large snapshot, and while it is busy with
// that the ships of the round pile up behind it, to be taken in the order of
// their arrival times, not in the order they were sent. (Stashing a batch
// without copying it fails this test every time.)
func TestPromotionFromRecycledBuffersEqualsReplay(t *testing.T) {
	const victim, follower, stranger = 1, 2, 7
	big := wal.Checkpoint{Dirs: []wal.DirSnap{{Dir: proto.InodeID{Server: stranger, Local: 1}}}}
	for i := 0; i < 40_000; i++ {
		big.Inodes = append(big.Inodes, wal.InodeSnap{Local: uint64(2 + i), Nlink: 1, Blocks: []uint64{uint64(i)}})
		big.Dirs[0].Ents = append(big.Dirs[0].Ents, wal.DirEntSnap{Name: fmt.Sprintf("entry-%06d", i)})
	}
	rebase := proto.Request{Op: proto.OpReplAppend,
		Data: (&repl.Msg{Primary: stranger, Snap: big.Marshal(), SnapLSN: 1}).AppendTo(nil)}

	build := func() *System {
		sys := replSystem(t, 3, repl.Config{Mode: repl.Async})
		sys.Network().SetFaultPlan(&msg.FaultPlan{Seed: 11, MaxDelay: 60_000, DelayPercent: 50})
		fep, _ := sys.servers[follower].ReplEndpointID()
		other := sys.network.NewEndpoint(0)
		cli := sys.NewClient(0)
		if err := cli.Mkdir("/d", fsapi.MkdirOpt{Distributed: true}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 240; i++ {
			if i%40 == 0 {
				if _, err := sys.network.Send(other, fep, proto.KindRequest, rebase.Marshal(), 0, msg.NewQueue()); err != nil {
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
		// Let the last one-way ships and acks land: the replica has caught up
		// when the primary has heard so.
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
		if err := sys.CrashLosingMemory(victim); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	promoted := build()
	rep, err := promoted.Failover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallback || rep.LostRecords != 0 {
		t.Fatalf("promotion of a caught-up replica: fallback=%v, %d records lost", rep.Fallback, rep.LostRecords)
	}
	replayed := build()
	if _, err := replayed.Recover(victim); err != nil {
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
	_, names := seedFiles(t, sys, 12)
	fep, _ := sys.servers[follower].ReplEndpointID()
	from := sys.network.NewEndpoint(0)
	rpc := func(what string, payload []byte) *proto.Response {
		t.Helper()
		answered := make(chan msg.Envelope, 1)
		go func() {
			if env, err := sys.network.RPC(from, fep, proto.KindRequest, payload, 0); err == nil {
				answered <- env
			}
		}()
		select {
		case env := <-answered:
			resp, err := proto.UnmarshalResponse(env.Payload)
			if err != nil {
				t.Fatalf("%s: undecodable answer: %v", what, err)
			}
			return resp
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer; its sender would wait forever", what)
			return nil
		}
	}

	resp := rpc("a request that does not decode", []byte{0xde, 0xad, 0xbe, 0xef})
	if _, err := repl.UnmarshalAck(resp.Data); resp.Err != fsapi.EINVAL || err == nil {
		t.Errorf("a request that does not decode: answered %v with %d bytes, want EINVAL and no ack", resp.Err, len(resp.Data))
	}
	resp = rpc("an append that does not decode", (&proto.Request{Op: proto.OpReplAppend, Data: []byte("not a repl.Msg")}).Marshal())
	if ack, err := repl.UnmarshalAck(resp.Data); err != nil || !ack.NeedSync || ack.Server != follower {
		t.Errorf("an append that does not decode: ack %+v, err %v, want NeedSync from server %d", ack, err, follower)
	}
	resp = rpc("a seal that does not decode", (&proto.Request{Op: proto.OpReplSeal, Data: []byte{1, 2, 3}}).Marshal())
	var sr repl.SealReply
	if err := repl.UnmarshalSealReplyInto(&sr, resp.Data); err != nil || sr.Durable != 0 || len(sr.Snap) != 0 {
		t.Errorf("a seal that does not decode: reply %+v, err %v, want an empty one", sr, err)
	}

	// None of it touched the replica the plane does hold.
	if err := sys.CrashLosingMemory(victim); err != nil {
		t.Fatal(err)
	}
	if rep, err := sys.Failover(victim); err != nil || rep.Fallback || rep.LostRecords != 0 {
		t.Fatalf("failover after the garbage: %+v, %v", rep, err)
	}
	verifyFiles(t, sys, names)
}
