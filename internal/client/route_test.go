package client

// Error-path tests for the epoch-cached routing layer (route.go), driven
// against scripted fake servers rather than a full deployment so the
// pathological cases — a snapshot provider that never catches up, a refresh
// racing a concurrent epoch publish, a broadcast spanning a drain, a batched
// rename that the epoch gate stops half way — are reachable
// deterministically.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/sim"
)

// fakeProvider serves a swappable routing snapshot and counts the times it
// was asked for one.
type fakeProvider struct {
	mu    sync.Mutex
	rt    *Routing
	asked int
}

func (p *fakeProvider) Routing() *Routing {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.asked++
	return p.rt
}

func (p *fakeProvider) publish(rt *Routing) {
	p.mu.Lock()
	p.rt = rt
	p.mu.Unlock()
}

// routeHarness is a client wired to scripted fake servers.
type routeHarness struct {
	net      *msg.Network
	provider *fakeProvider
	cli      *Client
	eps      []msg.EndpointID

	wireMu sync.Mutex
	wire   []stamp
}

// A stamp is what the wire shows of one request a fake server answered, at
// once: the server, the time the request was stamped with, and the arrival
// of its reply.
type stamp struct {
	srv           int
	sent, replied sim.Cycles
}

// served returns the stamps of the requests answered so far, in the order
// they were answered.
func (h *routeHarness) served() []stamp {
	h.wireMu.Lock()
	defer h.wireMu.Unlock()
	return append([]stamp(nil), h.wire...)
}

// newRouteHarness builds n fake servers whose behaviour is given by handler
// (invoked with the server index and the decoded request) and a client
// routing to them through a fakeProvider snapshot at epoch 1.
func newRouteHarness(t *testing.T, n int, handler func(srv int, req *proto.Request) *proto.Response) *routeHarness {
	t.Helper()
	machine := sim.NewMachine(sim.TopologyForCores(4), sim.DefaultCostModel())
	net := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 4096)

	h := &routeHarness{net: net, provider: &fakeProvider{}}
	cores := make([]int, n)
	for i := 0; i < n; i++ {
		srv := i
		ep := net.NewEndpoint(i % 4)
		cores[i] = i % 4
		h.eps = append(h.eps, ep.ID)
		t.Cleanup(ep.Inbox.Close)
		go func() {
			for {
				env, ok := ep.Inbox.PopWait()
				if !ok {
					return
				}
				req := &proto.Request{}
				err := proto.UnmarshalRequestInto(req, env.Payload)
				resp := proto.ErrResponse(fsapi.EINVAL)
				if err == nil {
					resp = handler(srv, req)
				}
				// Recorded before the client can see the reply.
				h.wireMu.Lock()
				replied := net.Reply(ep, env, proto.KindResponse, resp.Marshal(), env.ArriveAt)
				h.wire = append(h.wire, stamp{srv: srv, sent: env.SentAt, replied: replied})
				h.wireMu.Unlock()
			}
		}()
	}
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	h.provider.publish(&Routing{
		Map:     place.New(place.PolicyModulo, members, 1),
		Servers: h.eps,
		Cores:   cores,
	})

	h.cli = New(Config{
		Core:     0,
		Machine:  machine,
		Network:  net,
		DRAM:     dram,
		Cache:    ncc.NewPrivateCache(dram),
		Provider: h.provider,
		Root:     proto.RootInode,
		Options:  DefaultOptions(),
	})
	return h
}

var testDir = proto.InodeID{Server: 0, Local: 7}

// TestEpochRetryExhaustion: a snapshot provider that never catches up to the
// servers — every request bounces with EEPOCH and every refresh hands back
// the same stale epoch. Each routed caller goes through the one retry step,
// so each sends its request (or fan-out) once and then once per refresh, up
// to the bound, and gives up with EIO instead of spinning.
func TestEpochRetryExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(c *Client) error
		// sends counts the requests (or fan-outs) a caller made, from the
		// log of what the servers saw.
		sends func(log []string) int
	}{
		{"entry RPC", func(c *Client) error {
			_, err := c.routedEntryRPC(testDir, true, "name", &proto.Request{Op: proto.OpLookup})
			return err
		}, func(log []string) int { return len(log) }},
		{"broadcast", func(c *Client) error {
			_, err := c.routedBroadcast(0, true, &proto.Request{Op: proto.OpReadDirShard})
			return err
		}, func(log []string) int { // every fan-out reaches server 0 once
			n := 0
			for _, e := range log {
				if strings.HasPrefix(e, "0:") {
					n++
				}
			}
			return n
		}},
		{"chain (stat)", func(c *Client) error {
			_, err := c.Stat("/d/name")
			return err
		}, func(log []string) int { return len(log) }},
		{"coalesced create (open O_CREAT)", func(c *Client) error {
			_, err := c.Open("/d/name", fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			return err
		}, func(log []string) int { return len(log) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
				if req.Op == proto.OpBatch {
					return batchReply(proto.ErrResponse(fsapi.EEPOCH), proto.ErrResponse(fsapi.ECANCELED))
				}
				return proto.ErrResponse(fsapi.EEPOCH)
			})
			asked := h.provider.asked
			if err := tc.call(h.cli); !fsapi.IsErrno(err, fsapi.EIO) {
				t.Fatalf("exhausted retry returned %v, want EIO", err)
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			if n := tc.sends(h.log); n != maxEpochRetries+1 {
				t.Errorf("sent %d times, want %d: %v", n, maxEpochRetries+1, h.log)
			}
			if n := h.provider.asked - asked; n != maxEpochRetries {
				t.Errorf("refreshed %d times, want %d", n, maxEpochRetries)
			}
		})
	}
}

func TestRoutedRPCRefreshRacesConcurrentPublish(t *testing.T) {
	// The deployment migrates to epoch 2 while the first request is in
	// flight: the server answers EEPOCH, and — as during a real migration,
	// where the routing is published before the servers commit — the
	// provider's snapshot has already moved on by the time the client
	// refreshes. Exactly one retry must succeed.
	const newEpoch = 2
	var attempts atomic.Int64
	var h *routeHarness
	published := false
	h = newRouteHarness(t, 2, func(srv int, req *proto.Request) *proto.Response {
		attempts.Add(1)
		if req.Epoch != newEpoch {
			if !published {
				published = true
				// The concurrent publish: visible to the next refresh.
				h.provider.publish(&Routing{
					Map:     place.New(place.PolicyModulo, []int32{0, 1}, newEpoch),
					Servers: h.eps,
					Cores:   []int{0, 1},
				})
			}
			return proto.ErrResponse(fsapi.EEPOCH)
		}
		return &proto.Response{Ino: testDir}
	})
	resp, err := h.cli.routedEntryRPC(testDir, true, "name", &proto.Request{Op: proto.OpLookup})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != fsapi.OK {
		t.Fatalf("response errno %v", resp.Err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("took %d attempts, want 2 (one bounce, one retry at the published epoch)", got)
	}
}

func TestRoutedBroadcastSkipsDrainedMember(t *testing.T) {
	// Server 1 has been drained: it is still running (it owns inodes) but
	// no longer a placement member. A distributed-directory broadcast must
	// fan out to the members only.
	var mu sync.Mutex
	hit := make(map[int]int)
	h := newRouteHarness(t, 3, func(srv int, req *proto.Request) *proto.Response {
		mu.Lock()
		hit[srv]++
		mu.Unlock()
		return &proto.Response{}
	})
	h.provider.publish(&Routing{
		Map:     place.New(place.PolicyModulo, []int32{0, 2}, 2),
		Servers: h.eps,
		Cores:   []int{0, 1, 2},
	})
	h.cli.refreshRouting()

	resps, err := h.cli.routedBroadcast(0, true, &proto.Request{Op: proto.OpReadDirShard})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("broadcast returned %d responses, want 2 (the members)", len(resps))
	}
	mu.Lock()
	defer mu.Unlock()
	if hit[1] != 0 {
		t.Fatalf("drained server 1 received %d broadcast requests", hit[1])
	}
	if hit[0] != 1 || hit[2] != 1 {
		t.Fatalf("member fan-out uneven: %v", hit)
	}
}

func TestRoutedBroadcastRetriesWholeFanOutOnEEPOCH(t *testing.T) {
	// One member answers EEPOCH (it adopted the next epoch first); the
	// whole fan-out must refresh and retry, and the caller must never see
	// the EEPOCH response.
	const newEpoch = 2
	var mu sync.Mutex
	rounds := 0
	var h *routeHarness
	h = newRouteHarness(t, 2, func(srv int, req *proto.Request) *proto.Response {
		mu.Lock()
		defer mu.Unlock()
		if srv == 1 && req.Epoch < newEpoch {
			h.provider.publish(&Routing{
				Map:     place.New(place.PolicyModulo, []int32{0, 1}, newEpoch),
				Servers: h.eps,
				Cores:   []int{0, 1},
			})
			return proto.ErrResponse(fsapi.EEPOCH)
		}
		if srv == 0 {
			rounds++
		}
		return &proto.Response{}
	})
	resps, err := h.cli.routedBroadcast(0, true, &proto.Request{Op: proto.OpReadDirShard})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		if r.Err == fsapi.EEPOCH {
			t.Fatal("caller saw an EEPOCH response")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if rounds != 2 {
		t.Fatalf("member 0 served %d fan-outs, want 2 (the whole broadcast retries)", rounds)
	}
}

// TestBroadcastTiming pins the client's two broadcast rules on the wire. Both
// charge one send per server first. Overlapped (directory broadcast on), all
// k requests are then stamped with that one time; one at a time (off), each
// after the first is stamped at its predecessor's reply's arrival. Both end at
// the last arrival plus one receive per server. A server the routing does not
// know answers EIO before anything is sent.
func TestBroadcastTiming(t *testing.T) {
	const k = 3
	harness := func(t *testing.T, parallel bool) *routeHarness {
		h := newRouteHarness(t, k, func(srv int, req *proto.Request) *proto.Response { return &proto.Response{} })
		h.cli.cfg.Options.DirBroadcast = parallel
		h.cli.AdvanceClock(1000)
		return h
	}
	for _, tc := range []struct {
		name     string
		parallel bool
	}{{"overlapped", true}, {"one at a time", false}} {
		t.Run(tc.name, func(t *testing.T) {
			h := harness(t, tc.parallel)
			cost := h.cli.cfg.Machine.Cost
			t0 := h.cli.Clock()
			if _, err := h.cli.broadcast([]int{0, 1, 2}, &proto.Request{Op: proto.OpReadDirShard}); err != nil {
				t.Fatal(err)
			}
			wire := h.served()
			if len(wire) != k {
				t.Fatalf("%d requests served, want %d", len(wire), k)
			}
			var last sim.Cycles
			for i, w := range wire {
				want := t0 + k*cost.MsgSend
				if !tc.parallel && i > 0 {
					if w.srv != i {
						t.Fatalf("server %d served %d-th", w.srv, i)
					}
					want = wire[i-1].replied
				}
				if w.sent != want {
					t.Errorf("request to server %d stamped %d, want %d", w.srv, w.sent, want)
				}
				last = max(last, w.replied)
			}
			if got, want := h.cli.Clock(), last+k*cost.MsgRecv; got != want {
				t.Errorf("the broadcast ended at %d, want %d", got, want)
			}
		})
	}
	t.Run("unknown server", func(t *testing.T) {
		for _, parallel := range []bool{true, false} {
			h := harness(t, parallel)
			before := h.cli.Clock()
			if _, err := h.cli.broadcast([]int{0, k}, &proto.Request{Op: proto.OpReadDirShard}); !fsapi.IsErrno(err, fsapi.EIO) {
				t.Fatalf("parallel %v: returned %v, want EIO", parallel, err)
			}
			if n := len(h.served()); n != 0 || h.cli.Clock() != before {
				t.Fatalf("parallel %v: sent %d requests and moved the clock %d", parallel, n, h.cli.Clock()-before)
			}
		}
	})
}

// --- rename: the one-message path and its fallbacks ---

// renameHarness is a two-server routeHarness whose client resolves
// "/d/<name>" from its directory cache: /d is the distributed directory
// testDir, and names seeds the file to be renamed. Each request the fake
// servers see is logged as "srv:OP@epoch" (a batch lists its sub-ops) before
// script answers it.
type renameHarness struct {
	*routeHarness
	mu  sync.Mutex
	log []string
}

var renamedFile = proto.InodeID{Server: 1, Local: 42}

func newRenameHarness(t *testing.T, script func(h *renameHarness, srv int, req *proto.Request) *proto.Response) *renameHarness {
	t.Helper()
	h := &renameHarness{}
	h.routeHarness = newRouteHarness(t, 2, func(srv int, req *proto.Request) *proto.Response {
		entry := fmt.Sprintf("%d:%s@%d", srv, req.Op, req.Epoch)
		if req.Op == proto.OpBatch {
			subs, _, err := proto.UnmarshalBatch(req.Data)
			if err != nil {
				return proto.ErrResponse(fsapi.EINVAL)
			}
			names := make([]string, len(subs))
			for i, sub := range subs {
				names[i] = fmt.Sprintf("%s@%d", sub.Op, sub.Epoch)
			}
			entry = fmt.Sprintf("%d:BATCH[%s]", srv, strings.Join(names, ","))
		}
		h.mu.Lock()
		h.log = append(h.log, entry)
		h.mu.Unlock()
		return script(h, srv, req)
	})
	h.cli.dcache.Put(dcacheKey{proto.RootInode, "d"}, dcacheEnt{ino: testDir, ftype: fsapi.TypeDir, dist: true})
	return h
}

// names returns a file name in /d plus a second name whose entry the
// epoch-1 map stores on the same server (or, with sameServer false, on the
// other one), and that server's index for the first.
func (h *renameHarness) names(sameServer bool) (from, to string, srv int) {
	from = "from"
	srv, _ = h.cli.routeEntry(testDir, true, from)
	for i := 0; ; i++ {
		to = fmt.Sprintf("to%d", i)
		if other, _ := h.cli.routeEntry(testDir, true, to); (other == srv) == sameServer {
			break
		}
	}
	h.cli.dcache.Put(dcacheKey{testDir, from}, dcacheEnt{ino: renamedFile, ftype: fsapi.TypeRegular})
	return from, to, srv
}

func (h *renameHarness) publishEpoch(epoch uint64) {
	h.provider.publish(&Routing{
		Map:     place.New(place.PolicyModulo, []int32{0, 1}, epoch),
		Servers: h.eps,
		Cores:   []int{0, 1},
	})
}

func (h *renameHarness) wantLog(t *testing.T, want ...string) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if strings.Join(h.log, " ") != strings.Join(want, " ") {
		t.Fatalf("servers saw  %v\nwant        %v", h.log, want)
	}
}

func batchReply(resps ...*proto.Response) *proto.Response {
	return &proto.Response{Data: proto.MarshalBatchResponses(resps)}
}

func TestBatchedRenameSameServerIsOneMessage(t *testing.T) {
	h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
		if req.Op != proto.OpBatch {
			return proto.ErrResponse(fsapi.EINVAL)
		}
		return batchReply(&proto.Response{Ino: proto.NilInode}, &proto.Response{Ino: renamedFile})
	})
	from, to, srv := h.names(true)
	if err := h.cli.Rename("/d/"+from, "/d/"+to); err != nil {
		t.Fatal(err)
	}
	h.wantLog(t, fmt.Sprintf("%d:BATCH[ADD_MAP@1,RM_MAP@1]", srv))
}

func TestCrossServerRenameSendsAddThenRm(t *testing.T) {
	h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
		return &proto.Response{Ino: proto.NilInode}
	})
	from, to, oldSrv := h.names(false)
	if err := h.cli.Rename("/d/"+from, "/d/"+to); err != nil {
		t.Fatal(err)
	}
	h.wantLog(t, fmt.Sprintf("%d:ADD_MAP@1", 1-oldSrv), fmt.Sprintf("%d:RM_MAP@1", oldSrv))
}

func TestBatchedRenameFallsBackOnEEPOCH(t *testing.T) {
	// The deployment moved to epoch 2 before the batch arrived: ADD_MAP
	// bounces, stop-on-error cancels RM_MAP, nothing has been applied. The
	// client refreshes and redoes both halves as routed RPCs, ADD first.
	h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
		if req.Op == proto.OpBatch {
			h.publishEpoch(2)
			return batchReply(proto.ErrResponse(fsapi.EEPOCH), proto.ErrResponse(fsapi.ECANCELED))
		}
		if req.Epoch != 2 {
			return proto.ErrResponse(fsapi.EEPOCH)
		}
		return &proto.Response{Ino: proto.NilInode}
	})
	from, to, srv := h.names(true)
	if err := h.cli.Rename("/d/"+from, "/d/"+to); err != nil {
		t.Fatal(err)
	}
	h.wantLog(t, fmt.Sprintf("%d:BATCH[ADD_MAP@1,RM_MAP@1]", srv),
		fmt.Sprintf("%d:ADD_MAP@2", srv), fmt.Sprintf("%d:RM_MAP@2", srv))
	if _, ok := h.cli.dcache.Get(dcacheKey{testDir, from}); ok {
		t.Error("the old name is still cached after the rename")
	}
	if ent, ok := h.cli.dcache.Get(dcacheKey{testDir, to}); !ok || ent.ino != renamedFile {
		t.Errorf("the new name is cached as %+v (%v), want the renamed inode", ent, ok)
	}
}

func TestBatchedRenameNeverRepeatsASucceededAdd(t *testing.T) {
	// ADD_MAP ran and replaced a file; only RM_MAP bounced. Re-issuing the
	// upsert would answer "replaced the inode you just installed" and the
	// real replaced target would never lose its link: the client must redo
	// RM_MAP alone and still unlink the target the first reply named.
	replaced := proto.InodeID{Server: 0, Local: 9}
	h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
		if req.Op == proto.OpBatch {
			h.publishEpoch(2)
			return batchReply(&proto.Response{Ino: replaced, Server: replaced.Server, N: 1}, proto.ErrResponse(fsapi.EEPOCH))
		}
		return &proto.Response{Ino: proto.NilInode}
	})
	from, to, srv := h.names(true)
	if err := h.cli.Rename("/d/"+from, "/d/"+to); err != nil {
		t.Fatal(err)
	}
	h.wantLog(t, fmt.Sprintf("%d:BATCH[ADD_MAP@1,RM_MAP@1]", srv),
		fmt.Sprintf("%d:RM_MAP@2", srv), "0:UNLINK_INODE@0")
}

func TestBatchedRenameReportsAFailedHalf(t *testing.T) {
	for _, tc := range []struct {
		name    string
		add, rm *proto.Response
		want    fsapi.Errno
	}{
		{"ADD_MAP fails", proto.ErrResponse(fsapi.ENOENT), proto.ErrResponse(fsapi.ECANCELED), fsapi.ENOENT},
		{"RM_MAP fails", &proto.Response{Ino: proto.NilInode}, proto.ErrResponse(fsapi.ENOENT), fsapi.ENOENT},
	} {
		h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
			return batchReply(tc.add, tc.rm)
		})
		from, to, srv := h.names(true)
		if err := h.cli.Rename("/d/"+from, "/d/"+to); !fsapi.IsErrno(err, tc.want) {
			t.Errorf("%s: rename returned %v, want %v", tc.name, err, tc.want)
		}
		// No second attempt: the batch's answer is final.
		h.wantLog(t, fmt.Sprintf("%d:BATCH[ADD_MAP@1,RM_MAP@1]", srv))
	}
}

// --- the chain: an entry operation and the inode operation it feeds ---

func TestChainFollowsTheInodeOnEXDEV(t *testing.T) {
	// The entry's server does not store the inode: it answers the lookup,
	// runs nothing else, and the STAT goes on its own to the server that does.
	h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
		if req.Op == proto.OpBatch {
			return batchReply(&proto.Response{Ino: proto.InodeID{Server: int32(1 - srv), Local: 42}, Ftype: fsapi.TypeRegular},
				proto.ErrResponse(fsapi.EXDEV))
		}
		return &proto.Response{Stat: proto.StatWire{Ino: req.Target, Size: 7}}
	})
	srv, _ := h.cli.routeEntry(testDir, true, "name")
	for _, want := range [][]string{
		{fmt.Sprintf("%d:BATCH[LOOKUP@1,STAT@0]", srv), fmt.Sprintf("%d:STAT@0", 1-srv)},
		{fmt.Sprintf("%d:STAT@0", 1-srv)}, // the looked-up entry was cached
	} {
		h.log = nil
		st, err := h.cli.Stat("/d/name")
		if err != nil || st.Size != 7 || st.Ino != 42 || st.Server != 1-srv {
			t.Fatalf("stat answered %+v, %v", st, err)
		}
		h.wantLog(t, want...)
	}
}

func TestChainRetriesWholeOnEEPOCH(t *testing.T) {
	// The deployment moved on before the chain arrived: the lookup bounces,
	// the open is cancelled, and both go out again under the new epoch.
	opened := proto.InodeID{Server: 0, Local: 42}
	h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
		if subs, _, _ := proto.UnmarshalBatch(req.Data); len(subs) == 2 && subs[0].Epoch == 2 {
			return batchReply(&proto.Response{Ino: opened, Ftype: fsapi.TypeRegular}, &proto.Response{Ino: opened, Ftype: fsapi.TypeRegular})
		}
		h.publishEpoch(2)
		return batchReply(proto.ErrResponse(fsapi.EEPOCH), proto.ErrResponse(fsapi.ECANCELED))
	})
	srv, _ := h.cli.routeEntry(testDir, true, "name")
	if _, err := h.cli.Open("/d/name", fsapi.ORdOnly, 0); err != nil {
		t.Fatal(err)
	}
	h.wantLog(t, fmt.Sprintf("%d:BATCH[LOOKUP@1,OPEN@0]", srv), fmt.Sprintf("%d:BATCH[LOOKUP@2,OPEN@0]", srv))
}

func TestUnlinkDropsItsEntryWhateverTheChainAnswers(t *testing.T) {
	// The server no longer calls a client back about the entry it removed
	// itself, so the unlink must forget the name on every way out — also
	// when the inode's server then refuses the UNLINK_INODE sent after it.
	for _, tc := range []struct {
		name  string
		chain *proto.Response
		want  fsapi.Errno
	}{
		{"removed and unlinked", batchReply(&proto.Response{Ino: renamedFile}, &proto.Response{}), fsapi.OK},
		{"removed, inode elsewhere fails", batchReply(&proto.Response{Ino: renamedFile}, proto.ErrResponse(fsapi.EXDEV)), fsapi.ENOENT},
		{"already gone", batchReply(proto.ErrResponse(fsapi.ENOENT), proto.ErrResponse(fsapi.ECANCELED)), fsapi.ENOENT},
	} {
		h := newRenameHarness(t, func(h *renameHarness, srv int, req *proto.Request) *proto.Response {
			if req.Op == proto.OpBatch {
				return tc.chain
			}
			return proto.ErrResponse(fsapi.ENOENT)
		})
		from, _, srv := h.names(true)
		err := h.cli.Unlink("/d/" + from)
		if tc.want == fsapi.OK && err != nil || tc.want != fsapi.OK && !fsapi.IsErrno(err, tc.want) {
			t.Errorf("%s: unlink returned %v, want %v", tc.name, err, tc.want)
		}
		if h.log[0] != fmt.Sprintf("%d:BATCH[RM_MAP@1,UNLINK_INODE@0]", srv) {
			t.Errorf("%s: servers saw %v", tc.name, h.log)
		}
		if _, ok := h.cli.dcache.Get(dcacheKey{testDir, from}); ok {
			t.Errorf("%s: the name is still cached", tc.name)
		}
	}
}

// TestPerCallStateSteadyStateAllocs: what a call draws — arena responses,
// an open-file description with its block map and dirty set — comes from
// what earlier calls gave back. The map is fragmented: its second run lives
// in the overflow a recycled description keeps.
func TestPerCallStateSteadyStateAllocs(t *testing.T) {
	c := &Client{}
	call := func() {
		mark := c.respMark()
		for i := 0; i < 5; i++ {
			r := c.newResp()
			r.Extents = append(r.Extents[:0], proto.Extent{Start: 1, Count: 1})
		}
		inner := c.respMark() // a nested call gives back only its own
		c.errResp(fsapi.ECANCELED)
		c.releaseResps(inner)
		if c.resps.used != 5 {
			t.Fatalf("the nested release left %d responses in use, want 5", c.resps.used)
		}
		of := c.newOpenFile()
		if of.blocks.Len() != 0 || len(of.dirty) != 0 || of.size != 0 || of.wrote {
			t.Fatalf("a recycled description is not empty: %+v", of)
		}
		of.blocks.AppendRun(ncc.Extent{Start: 9, Count: 2})
		of.blocks.AppendRun(ncc.Extent{Start: 20, Count: 1})
		of.addDirty(9)
		of.size, of.wrote = 100, true
		c.freeOpenFile(of)
		c.releaseResps(mark)
	}
	call()
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Fatalf("per-call state allocates %v times in steady state, want 0", allocs)
	}
	// Beyond the arena's bound a call still gets its responses; none is kept.
	for i := 0; i < 3*respArenaCap; i++ {
		c.newResp()
	}
	c.releaseResps(0)
	if c.resps.used != 0 || len(c.resps.items) != respArenaCap {
		t.Fatalf("after a call that drew %d responses the arena keeps %d (%d in use), want %d and 0", 3*respArenaCap, len(c.resps.items), c.resps.used, respArenaCap)
	}
}
