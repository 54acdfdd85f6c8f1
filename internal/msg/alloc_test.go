package msg

import (
	"testing"
)

// startEcho runs a minimal pooled responder on its own endpoint: it drains
// the inbox, releases each request payload into its cache, and replies with
// a same-sized payload drawn from its cache — the message layer's half of
// the steady-state request path (the proto layer's half is gated in
// internal/server).
func startEcho(n *Network, ep *Endpoint) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, ok := ep.Inbox.PopWait()
			if !ok {
				return
			}
			size := len(env.Payload)
			ep.PutBuf(env.Payload)
			out := ep.GetBuf(size)[:size]
			n.Reply(ep, env, env.Kind, out, env.ArriveAt)
		}
	}()
	return func() {
		ep.Inbox.Close()
		<-done
	}
}

// TestRPCSteadyStateAllocs pins the tentpole's zero-alloc property at the
// message layer: once the per-endpoint caches are warm, a full RPC round
// trip — pooled marshal buffer, send, future, reply, pooled decode release —
// does not touch the Go allocator.
func TestRPCSteadyStateAllocs(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	stop := startEcho(n, srv)
	defer stop()

	roundTrip := func() {
		buf := cli.GetBuf(64)[:64]
		env, err := n.RPC(cli, srv.ID, 1, buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		cli.PutBuf(env.Payload)
	}
	// Warm the buffer and future caches on both endpoints.
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	if allocs != 0 {
		t.Fatalf("steady-state RPC round trip allocated %.2f/op, want 0", allocs)
	}
}

// TestSendAsyncSteadyStateAllocs gates the async path the same way: several
// outstanding futures harvested out of order, still allocation-free.
func TestSendAsyncSteadyStateAllocs(t *testing.T) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	stop := startEcho(n, srv)
	defer stop()

	burst := func() {
		var futs [4]*Future
		for i := range futs {
			buf := cli.GetBuf(48)[:48]
			f, err := n.SendAsync(cli, srv.ID, 1, buf, 0)
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		for _, f := range futs {
			env, err := f.Await()
			if err != nil {
				t.Fatal(err)
			}
			cli.PutBuf(env.Payload)
		}
	}
	for i := 0; i < 32; i++ {
		burst()
	}
	allocs := testing.AllocsPerRun(100, burst)
	if allocs != 0 {
		t.Fatalf("steady-state async burst allocated %.2f/op, want 0", allocs)
	}
}

// BenchmarkRPCEcho measures the message-layer round trip; -benchmem should
// report 0 B/op, 0 allocs/op in steady state.
func BenchmarkRPCEcho(b *testing.B) {
	n, _ := testNetwork(2)
	cli := n.NewEndpoint(0)
	srv := n.NewEndpoint(1)
	stop := startEcho(n, srv)
	defer stop()

	for i := 0; i < 32; i++ {
		buf := cli.GetBuf(64)[:64]
		env, err := n.RPC(cli, srv.ID, 1, buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		cli.PutBuf(env.Payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := cli.GetBuf(64)[:64]
		env, err := n.RPC(cli, srv.ID, 1, buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		cli.PutBuf(env.Payload)
	}
}

// TestNewEndpointAllocs: registering an endpoint makes one object — its
// queues are held in place — and the endpoint array doubles, so its growth
// is a vanishing share; every endpoint stays found while others register
// and a sender looks them up concurrently (go test -race).
func TestNewEndpointAllocs(t *testing.T) {
	n, _ := testNetwork(2)
	first := n.NewEndpoint(0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // a sender resolving every registered id meanwhile
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := EndpointID(0); ; id++ {
				ep, ok := n.Endpoint(id)
				if !ok {
					break
				}
				if ep.ID != id {
					t.Errorf("id %d resolves to endpoint %d", id, ep.ID)
					return
				}
			}
		}
	}()
	allocs := testing.AllocsPerRun(1000, func() { n.NewEndpoint(1) })
	close(stop)
	<-done
	if allocs > 1 {
		t.Fatalf("NewEndpoint allocated %.0f objects, want 1", allocs)
	}
	if ep, ok := n.Endpoint(first.ID); !ok || ep != first {
		t.Fatal("the first endpoint is lost after the array grew")
	}
	if _, ok := n.Endpoint(EndpointID(n.registered.Load())); ok {
		t.Fatal("an id past the last registered resolves")
	}
}
