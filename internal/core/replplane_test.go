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
// produces. A fault plan delays half of the ships, and every round first hands
// the follower's plane a one-way rebase of another primary's replica from a
// large snapshot: while the plane is busy with that, the round's next ship
// waits behind it, and the stranger's payload goes back to the cache it was
// drawn from, not to the plane's.
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
		sys := replSystem(t, 3, repl.Config{Mode: repl.Sync})
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
	// A well-formed ship from beyond the replica's horizon: an earlier ship
	// went missing, and only a rebase closes the gap. It applies nothing.
	horizon := sys.ReplicaStats()[victim].Durable
	future := repl.Msg{Primary: victim, Base: horizon + 100, Recs: wal.EncodeRecords([]wal.Record{
		{LSN: horizon + 100, Type: wal.RecInode, Ino: 999, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1}})}
	resp = rpc("a ship from the future", (&proto.Request{Op: proto.OpReplAppend, Data: future.AppendTo(nil)}).Marshal())
	if ack, err := repl.UnmarshalAck(resp.Data); err != nil || !ack.NeedSync || ack.Durable != horizon {
		t.Errorf("a ship from the future: ack %+v, err %v, want NeedSync at horizon %d", ack, err, horizon)
	}
	resp = rpc("a seal that does not decode", (&proto.Request{Op: proto.OpReplSeal, Data: []byte{1, 2, 3}}).Marshal())
	var sr repl.SealReply
	if err := repl.UnmarshalSealReplyInto(&sr, resp.Data); err != nil || sr.Durable != 0 || len(sr.Snap) != 0 {
		t.Errorf("a seal that does not decode: reply %+v, err %v, want an empty one", sr, err)
	}
	// Well-formed requests for ops the plane does not serve: request-plane
	// ops, a ping among them, and a number no op has.
	for _, op := range []proto.Op{proto.OpPing, proto.OpLookup, proto.NumOps} {
		what := fmt.Sprintf("a %v request", op)
		if resp := rpc(what, (&proto.Request{Op: op}).Marshal()); resp.Err != fsapi.EINVAL {
			t.Errorf("%s: answered %v, want EINVAL", what, resp.Err)
		}
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
