package sim

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateEmptySafe: with no lanes joined, nothing constrains the system.
func TestGateEmptySafe(t *testing.T) {
	g := NewGate()
	if !g.SafeAt(0) || !g.SafeAt(1<<40) {
		t.Fatal("empty gate must be safe at any time")
	}
}

// TestGateBumpConstrains: a joined lane holds the safe time at its frontier.
func TestGateBumpConstrains(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	if !g.SafeAt(100) {
		t.Fatal("safe time must reach the lone lane's frontier")
	}
	if g.SafeAt(101) {
		t.Fatal("safe time must not pass the lone lane's frontier")
	}
	g.Bump(0, 250)
	if !g.SafeAt(250) || g.SafeAt(251) {
		t.Fatal("raising the frontier must move the safe time with it")
	}
}

// TestGateBumpMonotone: Bump never lowers an active lane's frontier.
func TestGateBumpMonotone(t *testing.T) {
	g := NewGate()
	g.Bump(0, 200)
	g.Bump(0, 50) // ignored: active lanes only move forward
	if g.SafeAt(51) == false {
		t.Fatal("stale Bump lowered an active lane's frontier")
	}
	if !g.SafeAt(200) {
		t.Fatal("frontier should still be 200")
	}
}

// TestGateMinOverLanes: the safe time is the minimum frontier over all
// active lanes.
func TestGateMinOverLanes(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	g.Bump(1, 70)
	g.Bump(2, 130)
	if !g.SafeAt(70) || g.SafeAt(71) {
		t.Fatal("safe time must be the minimum frontier (70)")
	}
	g.Bump(1, 400)
	if !g.SafeAt(100) || g.SafeAt(101) {
		t.Fatal("after the laggard advances, the next minimum (100) governs")
	}
}

// TestGateIdleReleases: idling a lane removes its constraint; resuming
// restores one at the wakeup time.
func TestGateIdleReleases(t *testing.T) {
	g := NewGate()
	g.Bump(0, 50)
	g.Bump(1, 500)
	if g.SafeAt(51) {
		t.Fatal("lane 0 should constrain at 50")
	}
	g.Idle(0)
	if !g.SafeAt(500) || g.SafeAt(501) {
		t.Fatal("after idling lane 0, lane 1's frontier (500) governs")
	}
	// Resume only affects idle lanes.
	g.Resume(1, 10) // lane 1 is active: ignored
	if !g.SafeAt(500) {
		t.Fatal("Resume must not lower an active lane's frontier")
	}
	g.Resume(0, 600)
	if g.SafeAt(501) {
		t.Fatal("resumed lane 0 at 600 cannot raise the safe time past lane 1")
	}
	g.Idle(1)
	if !g.SafeAt(600) || g.SafeAt(601) {
		t.Fatal("lane 0's resumed frontier (600) must now govern")
	}
}

// TestGateResumeLowersCache: the monotone safe-time cache must drop when a
// lane resumes below it (the waker's handoff), or a server could serve an
// arrival that the resumed lane can still undercut.
func TestGateResumeLowersCache(t *testing.T) {
	g := NewGate()
	g.Bump(0, 1000)
	g.Idle(1) // lane 1 parks
	if !g.SafeAt(1000) {
		t.Fatal("lane 0's frontier should allow 1000 (and prime the cache)")
	}
	g.Resume(1, 300)
	if g.SafeAt(301) {
		t.Fatal("cache must observe the resumed lane's lower frontier")
	}
	if !g.SafeAt(300) {
		t.Fatal("safe time should still reach the resumed frontier")
	}
}

// TestGateJoinLowersCache: a first Bump below the published safe time must be
// observed (join-time floor).
func TestGateJoinLowersCache(t *testing.T) {
	g := NewGate()
	g.Bump(0, 1000)
	if !g.SafeAt(900) {
		t.Fatal("prime the cache")
	}
	g.Bump(7, 400) // new lane joins behind the cache
	if g.SafeAt(401) {
		t.Fatal("join below the cached safe time must constrain again")
	}
}

// TestGateConcurrent hammers the gate from many goroutines and checks the
// invariant that SafeAt never returns true for a time beyond a frontier
// that some active lane is still holding far below it.
func TestGateConcurrent(t *testing.T) {
	g := NewGate()
	const lanes = 8
	// Lane 0 stays pinned low the whole time.
	g.Bump(0, 10)
	var wg sync.WaitGroup
	for id := 1; id < lanes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for t := Cycles(0); t < 5000; t += 7 {
				g.Bump(id, t)
				if t%35 == 0 {
					g.Idle(id)
					g.Resume(id, t+1)
				}
			}
		}(id)
	}
	stop := make(chan struct{})
	var violated bool
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g.SafeAt(11) {
				violated = true
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if violated {
		t.Fatal("SafeAt passed a pinned active lane's frontier")
	}
}

// TestGateSafeAtAllocs: the polling path must not allocate.
func TestGateSafeAtAllocs(t *testing.T) {
	g := NewGate()
	g.Bump(0, 100)
	g.Bump(1, 200)
	allocs := testing.AllocsPerRun(100, func() {
		g.SafeAt(50)
		g.SafeAt(150)
		g.Bump(0, 100)
	})
	if allocs != 0 {
		t.Fatalf("gate polling allocated %.1f/op, want 0", allocs)
	}
}

// parkUntilSafe is the consumer side of the waiter protocol, as
// msg.Queue.PopWaitEarliestGated runs it: check, park, sleep, all with the
// waiter's lock held up to the sleep, and an Unpark after a wake-up — which
// costs an acquisition of the gate only if the waiter is still registered.
func parkUntilSafe(g *Gate, w *Waiter, at Cycles) {
	w.Cond.L.Lock()
	woke := false
	for ; !g.SafeAt(at) && !g.Park(w, at, woke); woke = true {
		w.Cond.Wait()
	}
	if woke {
		g.Unpark(w)
	}
	w.Cond.L.Unlock()
}

// TestGateWaiterWakesOnBump: a parked consumer is signalled when the pinning
// lane's frontier advances past the arrival it waits for.
func TestGateWaiterWakesOnBump(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10) // pins the safe time at 10
	w := &Waiter{Cond: sync.NewCond(new(sync.Mutex))}
	woke := make(chan struct{})
	go func() {
		parkUntilSafe(g, w, 100)
		close(woke)
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter park (works unparked too)
	g.Bump(0, 100)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by a frontier advance")
	}
}

// TestGateWaiterWakesOnIdle: parking the pinning lane releases the
// constraint and must wake blocked consumers too.
func TestGateWaiterWakesOnIdle(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10)
	w := &Waiter{Cond: sync.NewCond(new(sync.Mutex))}
	woke := make(chan struct{})
	go func() {
		parkUntilSafe(g, w, 100)
		close(woke)
	}()
	time.Sleep(5 * time.Millisecond)
	g.Idle(0)
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by the pinning lane idling")
	}
}

// TestGateLookahead: with a lookahead the safe time runs that far ahead of
// the floor, strictly — an arrival exactly one lookahead past the floor can
// still be tied by a later send.
func TestGateLookahead(t *testing.T) {
	g := NewGate()
	g.SetLookahead(400)
	g.Bump(0, 100)
	g.Bump(1, 900)
	if !g.SafeAt(499) || g.SafeAt(500) {
		t.Fatal("safe time must be floor 100 + lookahead 400, exclusive")
	}
	g.Idle(0)
	if !g.SafeAt(1299) || g.SafeAt(1300) {
		t.Fatal("safe time must follow the floor to lane 1")
	}
	g.Idle(1)
	if !g.SafeAt(1 << 62) {
		t.Fatal("no active lane: everything is safe")
	}
}

// TestGateMatchesOracle drives seeded random Bump/Sent/Await/Replied/Idle/
// Resume/join/Park/Unpark sequences against a brute-force model — the floor
// as a minimum over a plain slice, the parked waiters as a map — and checks
// after every step that the gate's safe time is the model's, that exactly the
// waiters a step satisfied were signalled (counted and unregistered, and
// withdrawn by Unpark without the gate's mutex), and that a step which does
// not raise the floor signals nobody.
func TestGateMatchesOracle(t *testing.T) {
	const (
		lanes   = 24
		waiters = 12
		steps   = 20000
		absent  = -2
		idle    = -1
	)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		lookahead := Cycles(rng.Intn(3) * 200) // 0, 200, 400
		g := NewGate()
		g.SetLookahead(lookahead)
		front := make([]int64, lanes) // frontier, or absent / idle
		for i := range front {
			front[i] = absent
		}
		ws := make([]*Waiter, waiters)
		for i := range ws {
			ws[i] = &Waiter{Cond: sync.NewCond(new(sync.Mutex))}
		}
		parkedAt := map[int]Cycles{}
		safe := func(at Cycles) bool {
			floor := int64(-1)
			for _, f := range front {
				if f >= 0 && (floor < 0 || f < floor) {
					floor = f
				}
			}
			if floor < 0 {
				return true
			}
			if lookahead == 0 {
				return at <= Cycles(floor)
			}
			return at < Cycles(floor)+lookahead
		}
		now := int64(100)
		for step := 0; step < steps; step++ {
			before := g.Stats()
			id := rng.Intn(lanes)
			now += int64(rng.Intn(50))
			at := Cycles(now + int64(rng.Intn(2000)))
			mayWake := true
			switch op := rng.Intn(10); {
			case op < 5: // join, resume or monotone raise, by each of its callers
				switch rng.Intn(4) {
				case 0:
					g.Bump(id, Cycles(now))
				case 1:
					g.Sent(id, Cycles(now-int64(rng.Intn(20))), Cycles(now))
				case 2:
					g.Await(id, Cycles(now))
				default:
					g.Replied(id, Cycles(now))
				}
				if front[id] < now {
					front[id] = now
				}
			case op < 6:
				g.Idle(id)
				front[id] = idle
			case op < 7:
				g.Resume(id, Cycles(now))
				if front[id] == idle {
					front[id] = now
				}
			case op < 9: // park (or re-key) a waiter
				mayWake = false
				w := rng.Intn(waiters)
				ws[w].Cond.L.Lock()
				got := g.Park(ws[w], at, false)
				ws[w].Cond.L.Unlock()
				if got != safe(at) {
					t.Fatalf("seed %d step %d: Park(%d) = %v, model says %v", seed, step, at, got, safe(at))
				}
				delete(parkedAt, w)
				if !got {
					parkedAt[w] = at
				}
			default:
				mayWake = false
				w := rng.Intn(waiters)
				locks := g.Stats().Locks
				ws[w].Cond.L.Lock()
				g.Unpark(ws[w])
				ws[w].Cond.L.Unlock()
				// The release path: a waiter the gate has signalled, or that
				// never parked, withdraws without touching the gate.
				if _, registered := parkedAt[w]; !registered && g.Stats().Locks != locks {
					t.Fatalf("seed %d step %d: Unpark of an unregistered waiter took the gate's mutex", seed, step)
				}
				delete(parkedAt, w)
			}
			satisfied := 0
			for w, pa := range parkedAt {
				if safe(pa) {
					satisfied++
					delete(parkedAt, w)
				}
			}
			after := g.Stats()
			if got := int(after.Wakes - before.Wakes); got != satisfied {
				t.Fatalf("seed %d step %d: %d waiters signalled, model satisfied %d", seed, step, got, satisfied)
			}
			if satisfied > 0 && (!mayWake || after.FloorRaises == before.FloorRaises) {
				t.Fatalf("seed %d step %d: waiters signalled without a floor raise", seed, step)
			}
			for w := range ws {
				_, want := parkedAt[w]
				if (ws[w].idx != 0) != want || ws[w].parked != want {
					t.Fatalf("seed %d step %d: waiter %d registered=%v parked=%v, model says %v", seed, step, w, ws[w].idx != 0, ws[w].parked, want)
				}
			}
			for _, probe := range []Cycles{at, Cycles(now), Cycles(now) + lookahead, Cycles(now) + 2*lookahead + 1} {
				if g.SafeAt(probe) != safe(probe) {
					t.Fatalf("seed %d step %d: SafeAt(%d) = %v, model says %v", seed, step, probe, g.SafeAt(probe), safe(probe))
				}
			}
		}
		if st := g.Stats(); st.Wakes == 0 || st.FloorRaises == 0 || st.Parks == 0 {
			t.Fatalf("seed %d: the sequence exercised nothing: %+v", seed, st)
		}
	}
}

// TestGateNonFloorRaiseIsSilent: raising a lane that does not hold the floor
// changes nothing anyone can observe — no recomputation, no signal.
func TestGateNonFloorRaiseIsSilent(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10)
	g.Bump(1, 20)
	w := &Waiter{Cond: sync.NewCond(new(sync.Mutex))}
	w.Cond.L.Lock()
	if g.Park(w, 15, false) {
		t.Fatal("15 is beyond the floor")
	}
	w.Cond.L.Unlock()
	before := g.Stats()
	g.Bump(1, 5000)
	after := g.Stats()
	if after.Recomputes != before.Recomputes || after.Wakes != before.Wakes || w.idx == 0 {
		t.Fatalf("a non-floor raise recomputed or signalled: before %+v after %+v", before, after)
	}
	g.Bump(0, 15)
	if st := g.Stats(); st.Wakes != after.Wakes+1 || w.idx != 0 {
		t.Fatalf("the floor raise past 15 must signal the waiter once: %+v", st)
	}
}

// TestGateNoLostWakeups: many lanes advance and park while many consumers
// wait for increasing arrival times; every consumer must get through every
// one of its waits. A lost wake-up hangs the test (run under -race at
// GOMAXPROCS=1,2,8 in CI).
func TestGateNoLostWakeups(t *testing.T) {
	const (
		lanes     = 16
		consumers = 16
		horizon   = 4000
	)
	g := NewGate()
	g.SetLookahead(3)
	for id := 0; id < lanes; id++ {
		g.Bump(id, 0)
	}
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &Waiter{Cond: sync.NewCond(new(sync.Mutex))}
			for at := Cycles(c); at < horizon; at += Cycles(1 + c%5) {
				parkUntilSafe(g, w, at)
			}
		}(c)
	}
	for id := 0; id < lanes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for at := Cycles(1); at <= horizon; at++ {
				switch (int(at) + id) % 3 {
				case 0:
					g.Bump(id, at)
				case 1:
					g.Sent(id, at-1, at)
				default:
					g.Replied(id, at)
				}
				if (int(at)+id)%97 == 0 {
					g.Idle(id)
					g.Resume(id, at)
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("a consumer never woke: %+v", g.Stats())
	}
}

// TestGateWakePathAllocs: the wake path — a consumer parking, floor raises
// and lane parks signalling it — must not allocate. Together with
// TestGateSafeAtAllocs this keeps the whole gate wait path at 0 allocs/op.
func TestGateWakePathAllocs(t *testing.T) {
	g := NewGate()
	g.Bump(0, 10)
	g.Bump(1, 10)
	w := &Waiter{Cond: sync.NewCond(new(sync.Mutex))}
	var next atomic.Uint64 // the arrival the consumer should wait for; 0 = stop
	parked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for at := Cycles(20); at != 0; at = Cycles(next.Load()) {
			w.Cond.L.Lock()
			for woke := false; !g.Park(w, at, woke); woke = true {
				parked <- struct{}{}
				w.Cond.Wait()
			}
			w.Cond.L.Unlock()
			parked <- struct{}{} // woken: report back before the next round
		}
	}()
	<-parked
	var tt Cycles = 10
	allocs := testing.AllocsPerRun(200, func() {
		tt += 10
		next.Store(uint64(tt + 10))
		g.Idle(1)       // park: lane 0 still holds the floor
		g.Resume(1, tt) // resume
		g.Bump(1, tt)   // a raise that leaves the floor alone
		g.Bump(0, tt)   // the floor raise: signals the consumer
		<-parked        // woken
		<-parked        // parked again, for the next round's raise
	})
	next.Store(0)
	g.Idle(0)
	g.Idle(1)
	<-parked
	<-done
	if allocs != 0 {
		t.Fatalf("gate wake path allocated %.1f/op, want 0", allocs)
	}
}

// TestGateLifecycleFailoverSealPublish models the control lane's hold/resume
// across a failover promotion (seal -> freeze -> publish -> commit): the
// seal RPC's pin holds the safe time at the seal boundary, parking between
// stages releases it, and a requester resumed by the commit reply re-joins
// at the commit arrival — so no lane can be served "into the past" of the
// promotion epoch.
func TestGateLifecycleFailoverSealPublish(t *testing.T) {
	g := NewGate()
	const ctl, parked, survivor = 0, 1, 2
	g.Bump(survivor, 2000) // a quiesced-but-tracked lane far ahead
	g.Idle(parked)         // requester parked on the frozen shard

	// Seal: the ctl RPC joins at the seal request's arrival and holds.
	g.Bump(ctl, 1000)
	if !g.SafeAt(1000) || g.SafeAt(1001) {
		t.Fatal("seal pin must hold the safe time exactly at the seal arrival")
	}
	// Seal done: the ctl lane parks between stages (publish is direct
	// installation, not messages) — the constraint must lift.
	g.Idle(ctl)
	if !g.SafeAt(2000) || g.SafeAt(2001) {
		t.Fatal("with ctl parked, only the survivor's frontier constrains")
	}
	// Commit: the ctl pin returns at the commit arrival and the parked
	// requester is resumed at its reply's arrival under that pin.
	g.Bump(ctl, 1500)
	g.Resume(parked, 1500)
	g.Resume(survivor, 1) // active lanes are never lowered by Resume
	g.Idle(ctl)           // commit RPC completes; ctl parks again
	if g.SafeAt(1501) {
		t.Fatal("resumed requester must constrain at the commit arrival")
	}
	if !g.SafeAt(1500) {
		t.Fatal("safe time must reach the commit arrival")
	}
}

// TestGateLifecycleCrashWhileParked models a server crash while a requester
// lane is parked on its frozen shard: the crash parks the server's lane, the
// gate is unconstrained (both lanes idle), and recovery re-joins below the
// primed cache — which must constrain again (the recovery frontier).
func TestGateLifecycleCrashWhileParked(t *testing.T) {
	g := NewGate()
	const srv, requester = 0, 1
	g.Bump(srv, 5000) // server's replication lane pinned by an in-flight ship
	g.Idle(requester) // requester parked on the frozen shard
	if g.SafeAt(5001) {
		t.Fatal("ship pin must constrain")
	}
	g.Idle(srv) // crash: the dead server's lanes park
	if !g.SafeAt(1 << 40) {
		t.Fatal("a fully parked gate must not constrain")
	}
	// Recovery: the server's first post-replay send re-joins below the
	// cache primed by the check above.
	g.Bump(srv, 6000)
	if g.SafeAt(6001) {
		t.Fatal("recovery re-join must lower the cached safe time")
	}
	if !g.SafeAt(6000) {
		t.Fatal("safe time must reach the recovery frontier")
	}
}

// TestGateLifecycleForkFanoutDuringCommit models workload fork fan-out
// racing a migration commit: the parent parks while children run, children
// join at spawn time under the parent's (then-active) floor, the commit pin
// holds, and the parent resumes at the latest child end.
func TestGateLifecycleForkFanoutDuringCommit(t *testing.T) {
	g := NewGate()
	const parent, child1, child2, ctl = 0, 1, 2, 3
	g.Bump(parent, 100)
	// Children join at their spawn times (>= the parent's frontier).
	g.Bump(child1, 100)
	g.Bump(child2, 110)
	g.Idle(parent) // parent parks to wait for the children
	// Migration commit RPC pins the ctl lane while children still run.
	g.Bump(ctl, 150)
	if !g.SafeAt(100) || g.SafeAt(101) {
		t.Fatal("slowest child governs while the parent is parked")
	}
	g.Bump(child1, 400)
	g.Bump(child2, 300)
	g.Idle(ctl) // commit served and replied; ctl parks
	if !g.SafeAt(300) || g.SafeAt(301) {
		t.Fatal("commit pin released: children govern again")
	}
	// Children exit; parent resumes at the latest child end.
	g.Idle(child1)
	g.Idle(child2)
	g.Bump(parent, 400)
	if !g.SafeAt(400) || g.SafeAt(401) {
		t.Fatal("parent must re-join at the fan-out's latest end time")
	}
}

// TestGateStallReport: the report names the floor-holder first, counts the
// idle lanes and lists what the parked consumers wait for — what a wedge's
// reader needs — and an empty gate says so.
func TestGateStallReport(t *testing.T) {
	g := NewGate()
	if got := g.String(); !strings.Contains(got, "no active lane") {
		t.Fatalf("empty gate reported as:\n%s", got)
	}
	g.SetLookahead(100)
	g.Bump(3, 9000)
	g.Bump(7, 500)
	g.Bump(5, 40)
	g.Idle(5)
	var mu sync.Mutex
	w := &Waiter{Cond: sync.NewCond(&mu)}
	mu.Lock()
	if g.Park(w, 7777, false) {
		t.Fatal("7777 is beyond the horizon of a floor at 500")
	}
	mu.Unlock()
	got := g.String()
	for _, want := range []string{"horizon 599", "2 active lanes (1 idle)", "lane 7 at 500 (holds the floor)\n  lane 3 at 9000\n", "1 parked consumers, waiting for [7777]"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report lacks %q:\n%s", want, got)
		}
	}
}
