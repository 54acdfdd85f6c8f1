package msg

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestGatedPopBlocksUntilSafe: a consumer on a gated queue must not surface
// an arrival the gate still forbids, and the pinning lane's frontier advance
// must wake it without polling (the threshold-waiter protocol, DESIGN.md §13).
func TestGatedPopBlocksUntilSafe(t *testing.T) {
	g := sim.NewGate()
	g.Bump(0, 50) // lane 0 pins the safe time below the item's arrival
	q := NewQueue()
	q.Push(Envelope{ArriveAt: 100, Seq: 1})
	got := make(chan Envelope, 1)
	go func() {
		e, ok := q.PopWaitEarliestGated(g)
		if !ok {
			t.Error("gated pop returned closed")
		}
		got <- e
	}()
	select {
	case e := <-got:
		t.Fatalf("gated pop surfaced arrival %d while the safe time was 50", e.ArriveAt)
	case <-time.After(20 * time.Millisecond):
	}
	g.Bump(0, 100) // frontier reaches the arrival: the waiter must wake
	select {
	case e := <-got:
		if e.ArriveAt != 100 {
			t.Fatalf("popped arrival %d, want 100", e.ArriveAt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gated pop not woken by the frontier advance")
	}
}

// TestGatedPopCloseBypass: once the queue is closed, gated pops drain the
// remaining items regardless of the safe time — a crashed server's run loop
// must regain control to exit even with a lane pinned in its past.
func TestGatedPopCloseBypass(t *testing.T) {
	g := sim.NewGate()
	g.Bump(0, 50)
	q := NewQueue()
	q.Push(Envelope{ArriveAt: 100, Seq: 1})
	got := make(chan bool, 1)
	go func() {
		_, ok := q.PopWaitEarliestGated(g)
		got <- ok
	}()
	select {
	case <-got:
		t.Fatal("gated pop surfaced an unsafe arrival before close")
	case <-time.After(20 * time.Millisecond):
	}
	q.Close()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("close must first drain the queued item, not report empty")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gated pop not released by Close")
	}
	if _, ok := q.PopWaitEarliestGated(g); ok {
		t.Fatal("drained closed queue must report closed")
	}
}

// TestGatedPopNilGate: a nil gate (serialized mode) degrades to the plain
// earliest-arrival pop.
func TestGatedPopNilGate(t *testing.T) {
	q := NewQueue()
	q.Push(Envelope{ArriveAt: 200, Seq: 1})
	q.Push(Envelope{ArriveAt: 100, Seq: 2})
	e, ok := q.PopWaitEarliestGated(nil)
	if !ok || e.ArriveAt != 100 {
		t.Fatalf("nil-gate pop got (%d,%v), want the earliest arrival (100)", e.ArriveAt, ok)
	}
}

// TestGatedPopOrdersByArrival: with several safe items queued, the gated pop
// serves them in deterministic (ArriveAt, Src, Seq) order like the ungated
// earliest-arrival pop.
func TestGatedPopOrdersByArrival(t *testing.T) {
	g := sim.NewGate()
	g.Bump(0, 1000)
	q := NewQueue()
	q.Push(Envelope{ArriveAt: 300, Src: 2, Seq: 1})
	q.Push(Envelope{ArriveAt: 100, Src: 1, Seq: 2})
	q.Push(Envelope{ArriveAt: 300, Src: 1, Seq: 3})
	want := []struct {
		at  sim.Cycles
		src EndpointID
	}{{100, 1}, {300, 1}, {300, 2}}
	for i, w := range want {
		e, ok := q.PopWaitEarliestGated(g)
		if !ok || e.ArriveAt != w.at || e.Src != w.src {
			t.Fatalf("pop %d got (at=%d src=%d ok=%v), want (at=%d src=%d)", i, e.ArriveAt, e.Src, ok, w.at, w.src)
		}
	}
}

// runGatedMesh drives clients × rpcs blocking calls from client lanes to
// gated echo servers and fails if a server ever pops an envelope whose
// (ArriveAt, Src, Seq) sorts before one it already served — the one thing
// the gate exists to prevent — or if the run does not finish: with every
// consumer asleep on the gate, a single lost wake-up hangs it.
func runGatedMesh(t *testing.T, faults *FaultPlan, servers, clients, rpcs int) {
	n, _ := testNetwork(8)
	g := sim.NewGate()
	n.SetGate(g)
	n.SetFaultPlan(faults)

	type key struct {
		at  sim.Cycles
		src EndpointID
		seq uint64
	}
	before := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	}
	var srvWG, cliWG sync.WaitGroup
	srvEPs := make([]*Endpoint, servers)
	for i := range srvEPs {
		ep := n.NewEndpoint(i % 8)
		srvEPs[i] = ep
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			var last key
			var clock sim.Cycles
			for {
				env, ok := ep.Inbox.PopWaitEarliestGated(g)
				if !ok {
					return
				}
				k := key{env.ArriveAt, env.Src, env.Seq}
				if before(k, last) {
					t.Errorf("server %d popped %+v after serving %+v", ep.ID, k, last)
				}
				last = k
				if clock < env.ArriveAt {
					clock = env.ArriveAt
				}
				clock += 300
				ep.PutBuf(env.Payload)
				n.Reply(ep, env, env.Kind, ep.GetBuf(8)[:8], clock)
			}
		}()
	}
	// Every lane joins before any runs: a lane that first sent at time 0
	// after its peers had run ahead would, rightly, arrive in served history.
	cliEPs := make([]*Endpoint, clients)
	for c := range cliEPs {
		cliEPs[c] = n.NewEndpoint(c % 8)
		n.GateJoin(cliEPs[c].ID, 0)
	}
	for c, ep := range cliEPs {
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			defer n.GateIdle(ep.ID)
			rng := uint64(c)*2654435761 + 1
			clock := sim.Cycles(c)
			for i := 0; i < rpcs; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				dst := srvEPs[(rng>>33)%uint64(servers)]
				payload := append(ep.GetBuf(16), byte(i), byte(c))
				env, err := n.RPC(ep, dst.ID, 1, payload, clock)
				if err != nil {
					t.Errorf("client %d rpc %d: %v", c, i, err)
					return
				}
				ep.PutBuf(env.Payload)
				clock = env.ArriveAt + sim.Cycles((rng>>40)%900)
			}
		}()
	}
	done := make(chan struct{})
	go func() { cliWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("gated mesh wedged: gate %+v", g.Stats())
	}
	for _, ep := range srvEPs {
		ep.Inbox.Close()
	}
	srvWG.Wait()
}

// TestGatedMeshNoLostWakeups: many lanes, many gated queues, every consumer
// parked on the gate most of the time. CI runs it under -race at
// GOMAXPROCS=1,2,8.
func TestGatedMeshNoLostWakeups(t *testing.T) {
	runGatedMesh(t, nil, 16, 48, 300)
}

// TestGatedLookaheadSound: the same mesh with delivery jitter and duplicate
// delivery installed. Jitter only adds to a message's latency and a
// duplicate arrives after its original, so serving up to one minimum message
// latency ahead of the floor must still never let an arrival appear behind
// one already served.
func TestGatedLookaheadSound(t *testing.T) {
	plan := &FaultPlan{
		Seed: 7, MaxDelay: 3000, DelayPercent: 30, DupPercent: 20,
		DupOK: func(uint16, []byte) bool { return true },
	}
	runGatedMesh(t, plan, 8, 24, 300)
}

// far is an arrival no active lane in these tests lets a gate call safe: with
// it safe, every lane is idle.
const far = sim.Cycles(1) << 40

// TestGateHoldIdlesUntilReply: a receiver that keeps a request takes its
// sender's lane out of the gate — also when the lane is out already, as on a
// request parked again on re-dispatch — and the reply brings it back at its
// arrival, not before and not later.
func TestGateHoldIdlesUntilReply(t *testing.T) {
	n, m := testNetwork(2)
	g := sim.NewGate()
	n.SetGate(g)
	cli, srv := n.NewEndpoint(0), n.NewEndpoint(1)
	got := make(chan Envelope, 1)
	go func() {
		env, err := n.RPC(cli, srv.ID, 1, nil, 1000)
		if err != nil {
			t.Error(err)
		}
		got <- env
	}()
	req, _ := srv.Inbox.PopWait()
	if g.SafeAt(far) {
		t.Fatal("a lane blocked on a request nobody holds must constrain the gate")
	}
	n.Hold(req)
	if !g.SafeAt(far) {
		t.Fatal("the held request's sender still constrains the gate")
	}
	n.Hold(req)
	if !g.SafeAt(far) {
		t.Fatal("a second hold brought the lane back")
	}
	arrive := n.Reply(srv, req, 1, nil, 50_000)
	if env := <-got; env.ArriveAt != arrive {
		t.Fatalf("reply arrived at %d, Reply said %d", env.ArriveAt, arrive)
	}
	last := arrive + m.Cost.MinMsgLatency() - 1 // the horizon of a floor at arrive
	if !g.SafeAt(last) || g.SafeAt(last+1) {
		t.Fatalf("after the reply the sender's lane is not at its arrival %d (safe at %d: %v, at %d: %v)",
			arrive, last, g.SafeAt(last), last+1, g.SafeAt(last+1))
	}
}

// TestGateAwaitOfHeldRequestLeavesLaneIdle: a requester with two requests
// out harvests the one answered first, which brings its lane back, then
// awaits the one its receiver holds. That Await leaves the lane idle, so the
// requester waits without holding the floor, and the held request's reply
// resumes it at its arrival. Raised to the second future's bound instead, the
// lane would pin the floor for as long as the request stays parked: an
// elastic migration wedged that way when a readdir broadcast met a frozen
// shard.
func TestGateAwaitOfHeldRequestLeavesLaneIdle(t *testing.T) {
	n, m := testNetwork(2)
	g := sim.NewGate()
	n.SetGate(g)
	cli, a, b := n.NewEndpoint(0), n.NewEndpoint(1), n.NewEndpoint(1)
	fa, err := n.SendAsync(cli, a.ID, 1, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := n.SendAsync(cli, b.ID, 1, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	reqA, _ := a.Inbox.PopWait()
	reqB, _ := b.Inbox.PopWait()
	n.Hold(reqB)
	n.Reply(a, reqA, 1, nil, 2000)
	if _, err := fa.Await(); err != nil {
		t.Fatal(err)
	}
	if g.SafeAt(far) {
		t.Fatal("awaiting the answered request left the lane out of the gate")
	}
	got := make(chan Envelope, 1)
	go func() {
		env, err := fb.Await()
		if err != nil {
			t.Error(err)
		}
		got <- env
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !g.SafeAt(far) {
		if time.Now().After(deadline) {
			t.Error("awaiting a held request keeps the requester's lane in the gate")
			break
		}
		runtime.Gosched()
	}
	arrive := n.Reply(b, reqB, 1, nil, 50_000)
	if env := <-got; env.ArriveAt != arrive {
		t.Fatalf("reply arrived at %d, Reply said %d", env.ArriveAt, arrive)
	}
	last := arrive + m.Cost.MinMsgLatency() - 1 // the horizon of a floor at arrive
	if !g.SafeAt(last) || g.SafeAt(last+1) {
		t.Fatalf("after the reply the requester's lane is not at its arrival %d", arrive)
	}
}

// TestGateTransientEndpointIdlesOnTheWayOut: a transient endpoint's lane is
// in the gate only while a call of its own is outstanding — gone after a
// Send, after an RPC, after an RPC whose reply queue closed, and not brought
// back by the answer to a Send it does not wait for — while an ordinary
// endpoint stays where its last call left it.
func TestGateTransientEndpointIdlesOnTheWayOut(t *testing.T) {
	n, _ := testNetwork(2)
	g := sim.NewGate()
	n.SetGate(g)
	srv := n.NewEndpoint(1)
	go func() {
		for {
			env, ok := srv.Inbox.PopWait()
			if !ok {
				return
			}
			if env.Kind == 2 {
				env.Reply.Close() // the responder dies
				continue
			}
			n.Reply(srv, env, env.Kind, nil, env.ArriveAt+100)
		}
	}()
	defer srv.Inbox.Close()

	for _, transient := range []bool{true, false} {
		ep := n.NewEndpoint(0)
		ep.Transient = transient
		check := func(after string) {
			t.Helper()
			if idle := g.SafeAt(far); idle != transient {
				t.Fatalf("transient=%v: lane idle=%v after %s", transient, idle, after)
			}
		}
		pongs := NewQueue()
		if _, err := n.Send(ep, srv.ID, 1, nil, 1000, pongs); err != nil {
			t.Fatal(err)
		}
		check("Send")
		if _, ok := pongs.PopWait(); !ok {
			t.Fatal("no answer to the Send")
		}
		check("the answer to a Send")
		if _, err := n.RPC(ep, srv.ID, 1, nil, 2000); err != nil {
			t.Fatal(err)
		}
		check("RPC")
		if _, err := n.RPC(ep, srv.ID, 2, nil, 3000); err == nil {
			t.Fatal("an RPC whose reply queue closed reported success")
		}
		check("an RPC whose reply queue closed")
		n.GateIdle(ep.ID) // leave the gate empty for the next round
	}
}
