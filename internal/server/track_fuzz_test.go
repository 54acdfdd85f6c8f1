package server

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/sim"
)

// trackClients is how many client libraries FuzzTrackers plays: more than a
// run holds, so a chain takes two.
const trackClients = 10

// trackDir is the directory FuzzTrackers works in: another server's, so
// distributed, so a migration moves some of its entries out.
var trackDir = proto.InodeID{Server: 1, Local: 9}

// trackRig is a stopped server whose handlers FuzzTrackers calls directly,
// with trackClients client libraries on endpoints of their own, and a model
// of who has each name of trackDir cached — clients named by endpoint id, as
// the server names them — in fan-out order.
type trackRig struct {
	t     *testing.T
	srv   *Server
	eps   []*msg.Endpoint
	names []string
	model map[string][]int32
	// out is the map a migrate-out commits: it moves the names that it
	// routes to server 1 out of server 0.
	out *place.Map
	// peak is the most runs the live trackers have needed at once, longest
	// the most clients one name had; compactions counts the times the
	// shard's name slab was compacted.
	peak, longest, compactions int
}

func newTrackRig(t *testing.T) *trackRig {
	machine := sim.NewMachine(sim.TopologyForCores(2), sim.DefaultCostModel())
	network := msg.NewNetwork(msg.WrapMachine(machine))
	dram := ncc.NewDRAM(64, 512)
	srv := New(Config{
		ID: 0, Core: 0, NumServers: 2, Machine: machine, Network: network,
		DRAM: dram, Partition: ncc.PartitionDRAM(dram, 1)[0],
		CoLocated: true, Placement: place.New(place.PolicyModulo, []int32{0}, 1),
	})
	r := &trackRig{t: t, srv: srv, model: map[string][]int32{},
		out: place.New(place.PolicyModulo, []int32{0, 1}, 2)}
	for c := int32(0); c < trackClients; c++ {
		r.eps = append(r.eps, network.NewClientEndpoint(1))
	}
	// Long names, so that removals compact the shard's slab (table.Names)
	// every few dozen ops.
	moved := 0
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("%02d-%s", i, strings.Repeat("n", 200))
		r.names = append(r.names, name)
		if r.out.Route(proto.Hash(trackDir, name)) != 0 {
			moved++
		}
	}
	if moved == 0 || moved == len(r.names) {
		t.Fatalf("%d of %d names move out; the rig wants some of each", moved, len(r.names))
	}
	return r
}

// sentCallback is one invalidation the rig saw: which client, about which name.
type sentCallback struct {
	at     sim.Cycles
	client int32
	name   string
}

// fanOut returns the invalidations sent since the last call, in the order
// the server sent them.
func (r *trackRig) fanOut() []sentCallback {
	var out []sentCallback
	for _, ep := range r.eps {
		for {
			env, ok := ep.Callbacks.TryPop()
			if !ok {
				break
			}
			iv, err := proto.UnmarshalInvalidation(env.Payload)
			if err != nil {
				r.t.Fatal(err)
			}
			out = append(out, sentCallback{at: env.SentAt, client: int32(ep.ID), name: strings.Clone(iv.Name)})
			r.srv.cfg.Network.ReleaseToSender(env)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// expect is the model's fan-out of name's trackers, except client.
func (r *trackRig) expect(want []sentCallback, name string, except int32) []sentCallback {
	for _, c := range r.model[name] {
		if c != except {
			want = append(want, sentCallback{client: c, name: name})
		}
	}
	return want
}

// step runs one op, decoded from two fuzzer bytes, and checks the fan-out
// it sent against the model.
func (r *trackRig) step(a, b byte) {
	name := r.names[int(a/5)%len(r.names)]
	client := int32(r.eps[int(b)%trackClients].ID)
	r.srv.from = msg.EndpointID(client) // the requester, as dispatch sets it
	var want []sentCallback
	switch a % 5 {
	case 0, 1: // a lookup, or the create of an absent name
		if _, ok := r.model[name]; !ok {
			r.addMap(name, client, false)
			r.model[name] = []int32{client}
			break
		}
		resp := r.srv.handleLookup(&proto.Request{Op: proto.OpLookup, Dir: trackDir, Name: name})
		if resp.Err != fsapi.OK {
			r.t.Fatalf("lookup of %.8s by %d: %v", name, client, resp.Err)
		}
		if !slices.Contains(r.model[name], client) {
			r.model[name] = append(r.model[name], client)
		}
	case 2: // an unlink by client
		resp := r.srv.handleRmMap(&proto.Request{Op: proto.OpRmMap, Dir: trackDir, Name: name})
		if _, ok := r.model[name]; !ok {
			if resp.Err != fsapi.ENOENT {
				r.t.Fatalf("unlink of absent %.8s: %v", name, resp.Err)
			}
			break
		}
		if resp.Err != fsapi.OK {
			r.t.Fatalf("unlink of %.8s by %d: %v", name, client, resp.Err)
		}
		want = r.expect(want, name, client)
		delete(r.model, name)
	case 3: // a rename's ADD_MAP over the name by client
		want = r.expect(want, name, client)
		r.addMap(name, client, true)
		r.model[name] = []int32{client}
	case 4: // a migration COMMIT moving out the names server 1 owns
		var moving []string
		for n := range r.model {
			if r.out.Route(proto.Hash(trackDir, n)) != 0 {
				moving = append(moving, n)
			}
		}
		slices.Sort(moving) // the order the commit drops them in
		for _, n := range moving {
			want = r.expect(want, n, -1)
			delete(r.model, n)
		}
		req := &proto.Request{Op: proto.OpShardCommit, Data: (&proto.ShardMsg{MapBlob: r.out.Encode()}).Marshal()}
		if resp := r.srv.handleShardCommit(req); resp.Err != fsapi.OK {
			r.t.Fatalf("commit: %v", resp.Err)
		}
	}
	got := r.fanOut()
	if len(got) != len(want) {
		r.t.Fatalf("op %d on %.8s by %d called back %v, want %v", a%5, name, client, got, want)
	}
	for i := range got {
		if got[i].client != want[i].client || got[i].name != want[i].name {
			r.t.Fatalf("op %d on %.8s by %d: callback %d went to %d about %.8s, want %d about %.8s",
				a%5, name, client, i, got[i].client, got[i].name, want[i].client, want[i].name)
		}
	}
	r.check()
}

func (r *trackRig) addMap(name string, client int32, replace bool) {
	resp := r.srv.handleAddMap(&proto.Request{Op: proto.OpAddMap, Dir: trackDir, Name: name,
		Target: proto.InodeID{Server: 1, Local: 100}, Ftype: fsapi.TypeRegular, Replace: replace})
	if resp.Err != fsapi.OK {
		r.t.Fatalf("add of %.8s by %d: %v", name, client, resp.Err)
	}
}

// check compares every entry's trackers with the model, and the pool with
// what they need: a chain of n > 1 clients takes ⌈n/7⌉ runs, every other run
// is on the free list, and the pool has never grown past the most the
// trackers needed at once.
func (r *trackRig) check() {
	sh, ok := r.srv.dirs.Get(trackDir)
	if !ok {
		return
	}
	need := 0
	for _, clients := range r.model {
		r.longest = max(r.longest, len(clients))
		if len(clients) > 1 {
			need += (len(clients) + trackRunSlots - 1) / trackRunSlots
		}
	}
	r.peak = max(r.peak, need)
	if sh.ents.Len() != len(r.model) {
		r.t.Fatalf("the shard holds %d entries, the model %d", sh.ents.Len(), len(r.model))
	}
	sh.ents.Range(func(name string, ent dirEnt) bool {
		got := sh.trackers.list(ent.tracker)
		for i, c := range got {
			if slices.Contains(got[:i], c) {
				r.t.Fatalf("%.8s lists client %d twice: %v", name, c, got)
			}
		}
		if want := r.model[name]; !slices.Equal(got, want) {
			r.t.Fatalf("%.8s is tracked by %v, want %v", name, got, want)
		}
		return true
	})
	free := 0
	for f := sh.trackers.free; f != 0 && free <= len(sh.trackers.runs); f = sh.trackers.runs[f-1].next {
		free++
	}
	if inUse := len(sh.trackers.runs) - free; inUse != need {
		r.t.Fatalf("%d runs in use (%d held, %d free), the trackers need %d", inUse, len(sh.trackers.runs), free, need)
	}
	if len(sh.trackers.runs) > r.peak {
		r.t.Fatalf("the pool holds %d runs; the trackers never needed more than %d", len(sh.trackers.runs), r.peak)
	}
}

// runTrackers plays ops, two bytes an op, against a fresh rig.
func runTrackers(t *testing.T, ops []byte) *trackRig {
	r := newTrackRig(t)
	held := 0
	for i := 0; i+1 < len(ops); i += 2 {
		r.step(ops[i], ops[i+1])
		if sh, ok := r.srv.dirs.Get(trackDir); ok {
			if sh.names.Held() < held {
				r.compactions++
			}
			held = sh.names.Held()
		}
	}
	return r
}

// trackSeed is a long op sequence: rounds in which every client looks up
// a few names in a rotating order, then an unlink, a rename over a name and
// a migration.
func trackSeed() []byte {
	var ops []byte
	for round := 0; round < 40; round++ {
		for k := 0; k < 3; k++ {
			name := byte((round + 3*k) % 8)
			for c := 0; c < trackClients; c++ {
				ops = append(ops, 5*name, byte((c*3+round)%trackClients))
			}
		}
		ops = append(ops, 5*byte(round%8)+2, byte(round), 5*byte((round+3)%8)+3, byte(round+1), 4, 0)
	}
	return ops
}

// FuzzTrackers runs lookups, unlinks, renames over a name and migrations
// that move names out, with the shard's name slab compacting in between,
// against a model that keeps each name's clients in the order they looked
// it up. Every change calls back exactly the model's clients, in its order,
// the requester skipped; no entry lists a client twice; and the shard's pool
// holds no run its trackers do not need, beyond the most they needed at once.
func FuzzTrackers(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 2, 4})
	f.Add([]byte{0, 0, 0, 1, 5, 0, 5, 1, 4, 0, 3, 2, 0, 3, 4, 0})
	f.Add(trackSeed())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runTrackers(t, ops)
	})
}

// TestTrackerSeedCoversChains: the long seed builds chains of two runs,
// moves names out and compacts the slab, so FuzzTrackers' seed corpus alone
// exercises what the fuzzer checks.
func TestTrackerSeedCoversChains(t *testing.T) {
	r := runTrackers(t, trackSeed())
	if r.longest <= trackRunSlots || r.compactions == 0 {
		t.Fatalf("the seed's longest chain was %d clients, and it compacted %d times", r.longest, r.compactions)
	}
	t.Logf("the seed's longest chain was %d clients, its trackers needed at most %d runs, and it compacted %d times",
		r.longest, r.peak, r.compactions)
}
