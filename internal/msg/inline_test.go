package msg

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitIdle waits until q's consumer sleeps on it, empty, with nobody serving
// in its place: the state in which the next push is served inline.
func waitIdle(t *testing.T, q *Queue) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !q.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("the consumer never went idle")
		}
		runtime.Gosched()
	}
}

// serveLoop is an inbox's consumer: it pops in arrival order and passes each
// envelope to serve, the function its hook runs, until the inbox closes.
func serveLoop(q *Queue, serve func(Envelope) bool) (done chan struct{}) {
	done = make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, ok := q.PopWaitEarliest()
			if !ok {
				return
			}
			serve(env)
		}
	}()
	return done
}

// TestInlineServeBeforeSendReturns: a Send to a consumer asleep on an empty
// inbox runs the serve hook on the sender's goroutine before Send returns,
// and an RPC's reply is queued before the RPC waits for it. The consumer
// pops nothing and stays asleep.
func TestInlineServeBeforeSendReturns(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	var served []uint16 // written by whoever serves; read here after Send
	popped := 0
	serve := func(env Envelope) bool {
		served = append(served, env.Kind)
		n.Reply(srv, env, env.Kind, nil, env.ArriveAt)
		return true
	}
	srv.Inbox.SetServe(serve)
	done := serveLoop(srv.Inbox, func(env Envelope) bool { popped++; return serve(env) })

	waitIdle(t, srv.Inbox)
	if _, err := n.Send(cli, srv.ID, 7, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(served) != 1 || served[0] != 7 {
		t.Fatalf("when Send returned the hook had served %v, want [7]", served)
	}
	if _, err := n.RPC(cli, srv.ID, 8, nil, 100); err != nil {
		t.Fatal(err)
	}
	if len(served) != 2 || served[1] != 8 {
		t.Fatalf("after the RPC the hook had served %v, want [7 8]", served)
	}
	if got := srv.Inbox.InlineServes(); got != 2 {
		t.Fatalf("InlineServes = %d, want 2", got)
	}
	if !srv.Inbox.Idle() {
		t.Fatal("an inline serve woke the consumer")
	}
	srv.Inbox.Close()
	<-done
	if popped != 0 {
		t.Fatalf("the consumer popped %d envelopes, want 0", popped)
	}
}

// TestInlineServeDeclinedIsQueued: an envelope the hook declines is queued
// for the consumer, which pops it as if there were no hook.
func TestInlineServeDeclinedIsQueued(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	srv.Inbox.SetServe(func(Envelope) bool { return false })
	popped := make(chan uint16, 1)
	done := serveLoop(srv.Inbox, func(env Envelope) bool { popped <- env.Kind; return true })
	defer func() { srv.Inbox.Close(); <-done }()

	waitIdle(t, srv.Inbox)
	if _, err := n.Send(cli, srv.ID, 9, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case k := <-popped:
		if k != 9 {
			t.Fatalf("the consumer popped kind %d, want 9", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a declined envelope never reached the consumer")
	}
	if got := srv.Inbox.InlineServes(); got != 0 {
		t.Fatalf("InlineServes = %d after a decline, want 0", got)
	}
}

// TestInlineServeNeverOverlaps: many senders RPC one inbox whose consumer
// serves with the same function its hook runs. A request pushed during an
// inline serve is queued and served afterwards by the loop, never beside the
// serve: the function fails if two serves overlap, and its unguarded counter
// is a data race the race detector reports if they do. Rounds repeat until
// both the hook and the loop have served, which host scheduling decides.
func TestInlineServeNeverOverlaps(t *testing.T) {
	const senders, rpcs, maxRounds = 8, 100, 50
	n, _ := testNetwork(2)
	srv := n.NewEndpoint(1)
	var active atomic.Int32
	count := 0
	serve := func(env Envelope) bool {
		if active.Add(1) != 1 {
			t.Error("two serves overlap")
		}
		count++
		runtime.Gosched() // widen the window for a second serve
		active.Add(-1)
		n.Reply(srv, env, env.Kind, nil, env.ArriveAt)
		return true
	}
	srv.Inbox.SetServe(serve)
	popped := 0 // written by the loop only
	var poppedSeen atomic.Bool
	done := serveLoop(srv.Inbox, func(env Envelope) bool {
		popped++
		poppedSeen.Store(true)
		return serve(env)
	})

	clis := make([]*Endpoint, senders)
	for i := range clis {
		clis[i] = n.NewEndpoint(0)
	}
	rounds := 0
	for ; rounds < maxRounds && (srv.Inbox.InlineServes() == 0 || !poppedSeen.Load()); rounds++ {
		var wg sync.WaitGroup
		for _, cli := range clis {
			wg.Add(1)
			go func(cli *Endpoint) {
				defer wg.Done()
				for j := 0; j < rpcs; j++ {
					if _, err := n.RPC(cli, srv.ID, 1, nil, 0); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}(cli)
		}
		wg.Wait()
	}
	srv.Inbox.Close()
	<-done
	if want := rounds * senders * rpcs; count != want {
		t.Fatalf("served %d requests, want %d", count, want)
	}
	if inline := srv.Inbox.InlineServes(); inline == 0 || popped == 0 {
		t.Fatalf("in %d rounds the hook served %d requests and the loop %d; want both above 0", rounds, inline, popped)
	}
}

// TestInlineServeCloseWaitsForServe: a Close during an inline serve does not
// let the consumer return before the serve ends, and the consumer returns
// once it has, whether or not anything was pushed meanwhile; what was pushed
// during the serve, or after the Close, is queued and popped by the consumer.
func TestInlineServeCloseWaitsForServe(t *testing.T) {
	for _, pushDuring := range []bool{false, true} {
		n, _ := testNetwork(2)
		cli := n.NewEndpoint(0)
		srv := n.NewEndpoint(1)
		var inServe atomic.Bool
		entered, release := make(chan struct{}), make(chan struct{})
		srv.Inbox.SetServe(func(Envelope) bool {
			inServe.Store(true)
			close(entered)
			<-release
			inServe.Store(false)
			return true
		})
		var popped []uint16
		done := serveLoop(srv.Inbox, func(env Envelope) bool {
			if inServe.Load() {
				t.Error("the consumer popped during an inline serve")
			}
			popped = append(popped, env.Kind)
			return true
		})

		waitIdle(t, srv.Inbox)
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			n.Send(cli, srv.ID, 1, nil, 0, nil)
		}()
		<-entered
		var want []uint16
		if pushDuring {
			if _, err := n.Send(cli, srv.ID, 2, nil, 10, nil); err != nil {
				t.Fatal(err)
			}
			want = append(want, 2)
		}
		srv.Inbox.Close()
		if pushDuring {
			if _, err := n.Send(cli, srv.ID, 3, nil, 20, nil); err != nil {
				t.Fatal(err)
			}
			want = append(want, 3)
		}
		if srv.Inbox.Len() != len(want) {
			t.Fatalf("%d envelopes queued during the serve, want %d", srv.Inbox.Len(), len(want))
		}
		select {
		case <-done:
			t.Fatal("the consumer returned during an inline serve")
		case <-time.After(10 * time.Millisecond):
		}
		close(release)
		<-sent
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("pushDuring=%v: the consumer of a closed inbox never returned after the serve", pushDuring)
		}
		if len(popped) != len(want) || (len(want) > 0 && (popped[0] != 2 || popped[1] != 3)) {
			t.Fatalf("the consumer popped %v, want %v", popped, want)
		}
		if got := srv.Inbox.InlineServes(); got != 1 {
			t.Fatalf("InlineServes = %d, want 1", got)
		}
	}
}
