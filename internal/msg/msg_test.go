package msg

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

func testNetwork(cores int) (*Network, *sim.Machine) {
	m := sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())
	return NewNetwork(WrapMachine(m)), m
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		q.Push(Envelope{Kind: uint16(i)})
	}
	if q.Len() != 10 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		e, ok := q.TryPop()
		if !ok || e.Kind != uint16(i) {
			t.Fatalf("pop %d: got %v %v", i, e.Kind, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("empty queue returned an envelope")
	}
}

func TestQueuePopWaitAndClose(t *testing.T) {
	q := NewQueue()
	done := make(chan Envelope, 1)
	go func() {
		e, ok := q.PopWait()
		if !ok {
			t.Error("PopWait returned closed before close")
		}
		done <- e
	}()
	q.Push(Envelope{Kind: 42})
	if e := <-done; e.Kind != 42 {
		t.Fatalf("got kind %d", e.Kind)
	}

	q.Close()
	if _, ok := q.PopWait(); ok {
		t.Fatal("PopWait on closed empty queue should report closed")
	}
	if !q.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewQueue()
	const producers, per = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(Envelope{})
			}
		}()
	}
	wg.Wait()
	if q.Len() != producers*per {
		t.Fatalf("len = %d, want %d", q.Len(), producers*per)
	}
}

func TestSendAtomicDelivery(t *testing.T) {
	n, _ := testNetwork(4)
	a := n.NewEndpoint(0)
	b := n.NewEndpoint(1)
	arrive, err := n.Send(a, b.ID, 1, []byte("hi"), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Atomic delivery: the message must already be in b's inbox.
	env, ok := b.Inbox.TryPop()
	if !ok {
		t.Fatal("message not in receiver queue after Send returned")
	}
	if env.ArriveAt != arrive || env.ArriveAt <= env.SentAt {
		t.Fatalf("arrival time %d not after send time %d", env.ArriveAt, env.SentAt)
	}
	if n.MessageCount() != 1 || n.ByteCount() != 2 {
		t.Fatal("stats not recorded")
	}
}

// TestReplyCountedBeforeRequesterWakes: a requester that has its answer
// finds the answer counted. A harness reads the counters on the host once
// its processes are done, and a reply counted after its push landed on
// either side of that reading.
func TestReplyCountedBeforeRequesterWakes(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	stop := startEcho(n, srv)
	defer stop()
	for i := uint64(1); i <= 5000; i++ {
		env, err := n.RPC(cli, srv.ID, 1, cli.GetBuf(8)[:8], 0)
		if err != nil {
			t.Fatal(err)
		}
		cli.PutBuf(env.Payload)
		if got := n.MessageCount(); got != 2*i {
			t.Fatalf("round trip %d: %d messages counted, want %d", i, got, 2*i)
		}
	}
}

func TestSendUnknownEndpoint(t *testing.T) {
	n, _ := testNetwork(2)
	a := n.NewEndpoint(0)
	if _, err := n.Send(a, EndpointID(99), 1, nil, 0, nil); err == nil {
		t.Fatal("send to unknown endpoint should fail")
	}
	if _, err := n.SendCallback(a, EndpointID(99), 1, nil, 0); err == nil {
		t.Fatal("callback to unknown endpoint should fail")
	}
}

func TestLatencyDependsOnDistance(t *testing.T) {
	n, m := testNetwork(40)
	src := n.NewEndpoint(0)
	sameSock := n.NewEndpoint(1)
	crossSock := n.NewEndpoint(39)
	if m.Topo.Distance(0, 39) != sim.DistCrossSocket {
		t.Skip("topology does not cross sockets")
	}
	a1, _ := n.Send(src, sameSock.ID, 1, nil, 0, nil)
	a2, _ := n.Send(src, crossSock.ID, 1, nil, 0, nil)
	if a2 <= a1 {
		t.Fatalf("cross-socket latency (%d) should exceed same-socket (%d)", a2, a1)
	}
}

func TestCallbackQueueSeparate(t *testing.T) {
	n, _ := testNetwork(2)
	a := n.NewEndpoint(0)
	b := n.NewEndpoint(1)
	if _, err := n.SendCallback(a, b.ID, 3, []byte("inv"), 0); err != nil {
		t.Fatal(err)
	}
	if b.Inbox.Len() != 0 {
		t.Fatal("callback landed in the request inbox")
	}
	if b.Callbacks.Len() != 1 {
		t.Fatal("callback queue empty")
	}
	if n.CallbackCount() != 1 {
		t.Fatal("callback count wrong")
	}
}

func TestRPCAndReply(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)

	go func() {
		env, ok := srv.Inbox.PopWait()
		if !ok {
			return
		}
		n.Reply(srv, env, 2, []byte("pong"), env.ArriveAt+100)
	}()

	env, err := n.RPC(cli, srv.ID, 1, []byte("ping"), 50)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "pong" {
		t.Fatalf("payload %q", env.Payload)
	}
	if env.ArriveAt <= 150 {
		t.Fatalf("reply arrival %d should include both directions of latency", env.ArriveAt)
	}
}

func TestBroadcastParallelVsSequential(t *testing.T) {
	n, _ := testNetwork(8)
	cli := n.NewEndpoint(0)
	const nsrv = 4
	var servers []EndpointID
	for i := 0; i < nsrv; i++ {
		srv := n.NewEndpoint(i + 1)
		servers = append(servers, srv.ID)
		go func(ep *Endpoint) {
			for {
				env, ok := ep.Inbox.PopWait()
				if !ok {
					return
				}
				// Each server takes 1000 cycles of service time.
				n.Reply(ep, env, 2, nil, env.ArriveAt+1000)
			}
		}(srv)
	}

	maxArrive := func(results []BroadcastResult) sim.Cycles {
		var max sim.Cycles
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Env.ArriveAt > max {
				max = r.Env.ArriveAt
			}
		}
		return max
	}

	par := maxArrive(n.Broadcast(cli, servers, 1, nil, 0, true))
	seq := maxArrive(n.Broadcast(cli, servers, 1, nil, 0, false))
	if par >= seq {
		t.Fatalf("parallel broadcast (%d) should complete before sequential (%d)", par, seq)
	}
}

func TestReplyWithoutQueueIsNoop(t *testing.T) {
	n, _ := testNetwork(2)
	a := n.NewEndpoint(0)
	// Envelope with no reply queue: Reply must not panic.
	n.Reply(a, Envelope{Src: a.ID}, 1, nil, 0)
}

func TestSendAsyncAwait(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)

	go func() {
		for i := 0; i < 2; i++ {
			env, ok := srv.Inbox.PopWait()
			if !ok {
				return
			}
			n.Reply(srv, env, 2, env.Payload, env.ArriveAt+500)
		}
	}()

	// Two overlapping requests; harvest out of order.
	f1, err := n.SendAsync(cli, srv.ID, 1, []byte("a"), 100)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := n.SendAsync(cli, srv.ID, 1, []byte("b"), 200)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := f2.Await()
	if err != nil {
		t.Fatal(err)
	}
	e1, err := f1.Await()
	if err != nil {
		t.Fatal(err)
	}
	if string(e1.Payload) != "a" || string(e2.Payload) != "b" {
		t.Fatalf("replies crossed: %q %q", e1.Payload, e2.Payload)
	}
	if f1.SentAt != 100 || f2.SentAt != 200 {
		t.Fatalf("futures lost their issue stamps: %d %d", f1.SentAt, f2.SentAt)
	}
}

func TestSendAsyncUnknownEndpoint(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	if _, err := n.SendAsync(cli, EndpointID(77), 1, nil, 0); err == nil {
		t.Fatal("async send to unknown endpoint should fail")
	}
}

func TestRPCUnknownEndpointAndClosedReply(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	if _, err := n.RPC(cli, EndpointID(42), 1, nil, 0); err == nil {
		t.Fatal("rpc to unknown endpoint should fail")
	}

	// A responder that dies without replying closes the reply queue; the
	// blocked RPC must surface an error rather than hang.
	srv := n.NewEndpoint(1)
	go func() {
		env, ok := srv.Inbox.PopWait()
		if !ok {
			return
		}
		env.Reply.Close()
	}()
	if _, err := n.RPC(cli, srv.ID, 1, nil, 0); err == nil {
		t.Fatal("rpc whose reply queue closed should fail")
	}
}

func TestAwaitClosedReplyQueue(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	go func() {
		env, ok := srv.Inbox.PopWait()
		if !ok {
			return
		}
		env.Reply.Close()
	}()
	f, err := n.SendAsync(cli, srv.ID, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Await(); err == nil {
		t.Fatal("Await on a closed reply queue should fail")
	}
}

func TestBroadcastUnknownEndpointIsPerDestination(t *testing.T) {
	n, _ := testNetwork(4)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	go func() {
		env, ok := srv.Inbox.PopWait()
		if !ok {
			return
		}
		n.Reply(srv, env, 2, nil, env.ArriveAt)
	}()
	results := n.Broadcast(cli, []EndpointID{srv.ID, EndpointID(99)}, 1, nil, 0, true)
	if results[0].Err != nil {
		t.Fatalf("reachable destination failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("unknown destination should fail, not hang")
	}
}

func TestBroadcastSequentialTimingContract(t *testing.T) {
	// Sequential broadcast sends each request only after the previous reply
	// arrived: reply arrivals must be strictly increasing by at least the
	// per-request service time.
	n, _ := testNetwork(8)
	cli := n.NewEndpoint(0)
	const nsrv, service = 3, 1000
	var servers []EndpointID
	for i := 0; i < nsrv; i++ {
		srv := n.NewEndpoint(i + 1)
		servers = append(servers, srv.ID)
		go func(ep *Endpoint) {
			for {
				env, ok := ep.Inbox.PopWait()
				if !ok {
					return
				}
				n.Reply(ep, env, 2, nil, env.ArriveAt+service)
			}
		}(srv)
	}
	results := n.Broadcast(cli, servers, 1, nil, 0, false)
	var prev sim.Cycles
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if i > 0 {
			// The reply envelope's SentAt is the server's reply time:
			// request-arrival + service, and the request was only sent at
			// the previous reply's arrival.
			if r.Env.SentAt < prev+service {
				t.Fatalf("reply %d sent at %d; the request cannot have been issued before %d", i, r.Env.SentAt, prev)
			}
			if r.Env.ArriveAt <= prev+service {
				t.Fatalf("reply %d arrived at %d, not after %d + service", i, r.Env.ArriveAt, prev)
			}
		}
		prev = r.Env.ArriveAt
	}
}
